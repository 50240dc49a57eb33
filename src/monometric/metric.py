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

A kernel that declares ``symmetric = True`` (``BridgeMC``, ``CanonicalMC``)
is called once per unordered pair of eigenvalues, n(n-1)/2 calls per form,
and its value is used for both orders; any other kernel, a plain function
included, is called at all n(n-1) ordered pairs. The sum runs in the same
order either way, so the form has the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, MonometricError, NotAState, NotHermitian, _outcome_of, unwrap
from .linalg import HermitianEigen, _matrix, as_matrix, hermitian_eig, hermitian_eig_each

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
        """``from_matrices`` on one matrix, by ``hermitian_eig`` directly: cheaper, same bits."""
        a = as_matrix(m)
        return unwrap(_rejection(a) or cls._outcome(a, _outcome_of(hermitian_eig, a), floor))

    @classmethod
    def from_matrices(
        cls, ms: Sequence, floor: float = STATE_EIG_FLOOR
    ) -> list["DensityMatrix | MonometricError"]:
        """``from_matrix`` on each matrix: per matrix, in order, the state or
        the error it would raise; an error in place of a matrix is its own
        outcome, untouched. The matrices ``_rejection`` passes go through one
        ``hermitian_eig_each``, so each state's eigendecomposition is bit for
        bit the one ``from_matrix`` gives it, whatever the batch."""
        mats = [a if isinstance(a, MonometricError) else _rejection(a) or a for a in map(_matrix, ms)]
        decs = hermitian_eig_each(mats)
        return [a if isinstance(a, MonometricError) else cls._outcome(a, dec, floor) for a, dec in zip(mats, decs)]

    @classmethod
    def _outcome(cls, a: np.ndarray, dec, floor: float) -> "DensityMatrix | MonometricError":
        """What a matrix that ``_rejection`` passes makes of ``dec``, its
        eigendecomposition or error: the state; a NotAState if it is not
        Hermitian or has an eigenvalue at or below ``floor``; or the error."""
        if isinstance(dec, NotHermitian):
            rejected = NotAState(f"state not Hermitian: {dec}")
            rejected.__cause__ = dec
            return rejected
        if isinstance(dec, MonometricError):
            return dec
        lo = dec.eigenvalues[0]
        if lo <= floor:
            return NotAState(f"smallest eigenvalue {lo:.3e} at or below floor {floor:.1e}")
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


def _rejection(a: np.ndarray) -> NotAState | None:
    """The NotAState of a matrix that is not square, not finite or not of
    trace one, checked in that order; None if it is all three."""
    n, n2 = a.shape
    if n != n2:
        return NotAState(f"state must be square, got {(n, n2)}")
    if not np.isfinite(a).all():
        return NotAState("state has a non-finite entry")
    t = complex(a.trace())
    if abs(t - 1.0) > STATE_TRACE_TOL:
        return NotAState(f"state trace {t} not 1")
    return None


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
    kern = _kernel_values(spec, w)
    # conj(at)*bt is grouped first: at B = A the product is exactly real,
    # so the quadratic form stays real to the bit even for wild kernels
    total = 0j
    for k_i, at_i, bt_i in zip(kern, at, bt):
        for k, x, y in zip(k_i, at_i, bt_i):
            total += k * (x.conjugate() * y)
    return total


def _kernel_values(spec: MetricSpec, w: list[float]) -> list[list[float]]:
    """The form's coefficients: C / w_i on the diagonal, c(w_i, w_j) off it,
    each checked to be real.

    The kernel is called in row order. A kernel whose ``symmetric`` is
    True is called once per unordered pair, at i < j, and its value is
    mirrored to (j, i); any other kernel is called at every ordered pair.
    """
    c = spec.c
    diag = float(spec.diagonal_constant)
    mirror = getattr(c, "symmetric", False) is True
    n = len(w)
    kern = [[0.0] * n for _ in range(n)]
    for i, wi in enumerate(w):
        row = kern[i]
        row[i] = diag / wi
        for j in range(i + 1 if mirror else 0, n):
            if j == i:
                continue
            k = c(wi, w[j])
            if type(k) is not float:
                z = complex(k)
                if z.imag != 0.0:
                    raise DomainError(f"kernel value {k} is not real")
                k = z.real
            row[j] = k
            if mirror:
                kern[j][i] = k
    return kern


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
