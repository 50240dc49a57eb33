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
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, MonometricError, NotAState, NotHermitian
from .linalg import HermitianEigen, as_matrix, hermitian_eig, hermitian_eig_stack

STATE_EIG_FLOOR = 1e-10
STATE_TRACE_TOL = 1e-10
QUADRATIC_IMAG_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated strictly positive, trace-one Hermitian matrix.

    ``eig`` is the eigendecomposition computed while validating;
    ``metric_form`` reuses it, so a state that validates is one the form
    can evaluate.
    """

    matrix: np.ndarray
    eig: HermitianEigen = field(compare=False, repr=False)

    @classmethod
    def from_matrix(cls, m, floor: float = STATE_EIG_FLOOR) -> "DensityMatrix":
        (state,) = cls._validate(as_matrix(m)[None], floor)
        if isinstance(state, NotAState):
            raise state
        return state

    @classmethod
    def from_matrices(
        cls, ms: Sequence, floor: float = STATE_EIG_FLOOR
    ) -> list["DensityMatrix | NotAState"]:
        """``from_matrix`` on each matrix: per matrix, in order, the state or
        the NotAState it would raise. Matrices of one shape are checked and
        diagonalized together as one stack, and each state's
        eigendecomposition is bit for bit the one ``from_matrix`` gives it,
        whatever else is in the batch."""
        mats = [as_matrix(m) for m in ms]
        shapes: dict[tuple[int, int], list[int]] = {}
        for i, a in enumerate(mats):
            shapes.setdefault(a.shape, []).append(i)
        out: list = [None] * len(mats)
        for members in shapes.values():
            stack = np.stack([mats[i] for i in members])
            for i, state in zip(members, cls._validate(stack, floor)):
                out[i] = state
        return out

    @classmethod
    def _validate(cls, a: np.ndarray, floor: float) -> list["DensityMatrix | NotAState"]:
        """Every state check on each member of a stack (B, n, n), in order:
        square, finite, trace one, Hermitian, smallest eigenvalue above
        ``floor``. A stack of one is diagonalized by ``hermitian_eig``."""
        count, n, n2 = a.shape
        if n != n2:
            return [NotAState(f"state must be square, got {(n, n2)}") for _ in range(count)]
        if np.isfinite(a).all():
            finite = [True] * count
            tr = a.trace(axis1=1, axis2=2).tolist()
        else:
            finite = np.isfinite(a).all(axis=(1, 2))
            # zero the non-finite members, so no inf - inf reaches a trace
            tr = np.where(finite[:, None, None], a, 0.0).trace(axis1=1, axis2=2).tolist()
            finite = finite.tolist()
        out: list = [None] * count
        live = []
        for i, (ok, t) in enumerate(zip(finite, tr)):
            if not ok:
                out[i] = NotAState("state has a non-finite entry")
            elif abs(t - 1.0) > STATE_TRACE_TOL:
                out[i] = NotAState(f"state trace {t} not 1")
            else:
                live.append(i)
        if not live:
            return out
        try:
            if len(live) == 1:
                decs = [hermitian_eig(a[live[0]])]
            else:
                stack = hermitian_eig_stack(a if len(live) == count else a[live])
                decs = [HermitianEigen(w, u) for w, u in zip(stack.eigenvalues, stack.eigenvectors)]
        except NotHermitian as exc:
            if len(live) > 1:
                # a stack names only its first asymmetric member: check each alone
                for i in live:
                    (out[i],) = cls._validate(a[i : i + 1], floor)
                return out
            rejected = NotAState(f"state not Hermitian: {exc}")
            rejected.__cause__ = exc
            out[live[0]] = rejected
            return out
        for i, dec in zip(live, decs):
            lo = dec.eigenvalues[0]
            if lo <= floor:
                out[i] = NotAState(
                    f"smallest eigenvalue {lo:.3e} at or below floor {floor:.1e}"
                )
            else:
                out[i] = cls(matrix=a[i], eig=dec)
        return out

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
    validated (and so diagonalized) first. A kernel value with a nonzero
    imaginary part raises DomainError; NaN and infinite values propagate.
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
    u = dec.eigenvectors
    uh = u.conj().T
    w = dec.eigenvalues.tolist()
    at = (uh @ am @ u).tolist()
    bt = (uh @ bm @ u).tolist()
    c = spec.c
    diag = float(spec.diagonal_constant)
    # conj(at)*bt is grouped first: at B = A the product is exactly real,
    # so the quadratic form stays real to the bit even for wild kernels
    total = 0j
    for i, (wi, at_i, bt_i) in enumerate(zip(w, at, bt)):
        for j, (wj, x, y) in enumerate(zip(w, at_i, bt_i)):
            k = diag / wi if i == j else c(wi, wj)
            if type(k) is not float:
                z = complex(k)
                if z.imag != 0.0:
                    raise DomainError(f"kernel value {k} is not real")
                k = z.real
            total += k * (x.conjugate() * y)
    return total


def metric_quadratic(spec: MetricSpec, rho, a) -> float:
    """K(A, A), returned as a real number.

    Every term of the double sum is real at B = A, so a nonvanishing
    imaginary part can only signal an internal fault; it is checked
    against QUADRATIC_IMAG_TOL and never expected to fire.
    """
    val = metric_form(spec, rho, a, a)
    if abs(val.imag) > QUADRATIC_IMAG_TOL:
        raise MonometricError(
            f"quadratic form came out non-real: imag {val.imag:.3e}"
        )
    return val.real
