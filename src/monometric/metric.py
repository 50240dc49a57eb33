"""The monotone-metric sesquilinear form on positive definite states.

In the eigenbasis of the state (rho = U diag(w) U*, At = U*AU,
Bt = U*BU) the form is

    K(A, B) = C * SUM_i conj(At_ii) Bt_ii / w_i
            + SUM_{i != j} c(w_i, w_j) conj(At_ij) Bt_ij,

conjugate-linear in A and linear in B; at B = A it reduces to the
quadratic form, which is real for any kernel values whatsoever since
every term then carries |At_ij|^2. With a Fisher-adjusted kernel
(c(1,1) = 1) and C = 1 the diagonal sum is just the classical Fisher
information of the diagonal data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, MonometricError, NotAState
from .linalg import HermitianEigen, as_matrix, frobenius, hermitian_eig

STATE_EIG_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated strictly positive, trace-one Hermitian matrix.

    ``eig`` is the eigendecomposition computed while validating, at the
    state's own Hermiticity tolerance; ``metric_form`` reuses it, so a
    state that validates is one the form can evaluate.
    """

    matrix: np.ndarray
    eig: HermitianEigen = field(compare=False, repr=False)

    @classmethod
    def from_matrix(
        cls,
        m,
        herm_tol: float = 1e-10,
        trace_tol: float = 1e-10,
        floor: float = STATE_EIG_FLOOR,
    ) -> "DensityMatrix":
        a = as_matrix(m)
        if a.shape[0] != a.shape[1]:
            raise NotAState(f"state must be square, got {a.shape}")
        defect = frobenius(a - a.conj().T) / (frobenius(a) + 1.0)
        if defect > herm_tol:
            raise NotAState(f"state not Hermitian: defect {defect:.3e}")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > trace_tol:
            raise NotAState(f"state trace {tr} not 1")
        dec = hermitian_eig(a, tol=herm_tol)
        if dec.eigenvalues[0] <= floor:
            raise NotAState(
                f"smallest eigenvalue {dec.eigenvalues[0]:.3e} at or below "
                f"floor {floor:.1e}"
            )
        return cls(matrix=a, eig=dec)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MetricSpec:
    """Kernel plus the diagonal constant of the form.

    Defaults assume a Fisher-adjusted kernel, c(1,1) = 1, paired with
    diagonal_constant = 1 so that c(v,v) = C/v holds with C = 1.
    """

    c: Callable[[float, float], float]
    diagonal_constant: float = 1.0


def _coerce_state(rho) -> DensityMatrix:
    if isinstance(rho, DensityMatrix):
        return rho
    return DensityMatrix.from_matrix(rho)


def metric_form(spec: MetricSpec, rho, a, b) -> complex:
    """Evaluate K(A, B) at the state rho.

    Uses the eigendecomposition the state carries; a raw matrix is
    validated (and so diagonalized) first.
    """
    state = _coerce_state(rho)
    am = as_matrix(a)
    bm = as_matrix(b)
    n = state.dim
    if am.shape != (n, n) or bm.shape != (n, n):
        raise DimensionMismatch(
            f"state is {n}x{n}, tangents are {am.shape} and {bm.shape}"
        )
    dec = state.eig
    w = dec.eigenvalues
    u = dec.eigenvectors
    at = u.conj().T @ am @ u
    bt = u.conj().T @ bm @ u
    # conj(at)*bt is grouped first: at B = A the product is exactly real,
    # so the quadratic form stays real to the bit even for wild kernels
    total = 0.0 + 0.0j
    for i in range(n):
        total += spec.diagonal_constant * (np.conj(at[i, i]) * bt[i, i]) / w[i]
    cache: dict[tuple[float, float], float] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            key = (float(w[i]), float(w[j]))
            cv = cache.get(key)
            if cv is None:
                cv = float(spec.c(key[0], key[1]))
                cache[key] = cv
            total += cv * (np.conj(at[i, j]) * bt[i, j])
    return complex(total)


def metric_quadratic(spec: MetricSpec, rho, a, imag_tol: float = 1e-11) -> float:
    """K(A, A), returned as a real number.

    Every term of the double sum is real at B = A, so a nonvanishing
    imaginary part can only signal an internal fault; it is checked
    against imag_tol and never expected to fire.
    """
    val = metric_form(spec, rho, a, a)
    if abs(val.imag) > imag_tol:
        raise MonometricError(
            f"quadratic form came out non-real: imag {val.imag:.3e}"
        )
    return val.real
