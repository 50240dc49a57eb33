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

The coefficients depend only on the state's eigenvalues and the spec, never
on the tangents, so each ``DensityMatrix`` keeps those of the last spec it
was evaluated with: a further form at the same state and the same spec
object (compared with ``is``) calls no kernel. A kernel that raises leaves
nothing kept. Kernels are taken to be pure functions of their arguments.
``metric_form`` and ``metric_quadratic`` share the private steps: one
tangent transform (``_eigenbasis``), one reader and writer of the kept
coefficients (``_kept_coefficients``) and one sum (``_sum``). The quadratic
form takes A into the eigenbasis once and sums it against itself, so it is
bit for bit the real part of ``metric_form(spec, rho, a, a)``.
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
    can evaluate. It reuses the form's coefficients too: ``_coefficients``
    is the last ``(spec, coefficients)`` pair a form at this state built,
    read and written only by ``_kept_coefficients``, and not part of
    equality or repr.
    """

    matrix: np.ndarray
    eig: HermitianEigen = field(compare=False, repr=False)
    _coefficients: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    validated (and so diagonalized) first. The coefficients are the state's
    kept ones when they were built for this very spec, else they are built
    and kept. A kernel value with a nonzero imaginary part raises
    DomainError; NaN and infinite values propagate.
    """
    state = _coerce_state(rho)
    at, bt = _eigenbasis(state, a, b)
    return _sum(_kept_coefficients(state, spec), at, bt)


def _eigenbasis(state: DensityMatrix, *tangents) -> list[list[list[complex]]]:
    """Each of one or two tangents X as U*XU in the state's eigenbasis, a
    list of rows; DimensionMismatch, naming both (or the one twice), unless
    they are n x n."""
    ms = [as_matrix(t) for t in tangents]
    n = state.dim
    if ms[0].shape != (n, n) or ms[-1].shape != (n, n):
        raise DimensionMismatch(f"state is {n}x{n}, tangents are {ms[0].shape} and {ms[-1].shape}")
    u = state.eig.eigenvectors
    uh = u.conj().T
    return [(uh @ m @ u).tolist() for m in ms]


def _kept_coefficients(state: DensityMatrix, spec: MetricSpec) -> list[list[float]]:
    """The state's coefficients for ``spec``: the kept ones when they were
    built for this very spec object, else built by ``_kernel_values`` and
    kept. The one reader and writer of ``_coefficients``."""
    kept = state._coefficients
    if kept is not None and kept[0] is spec:
        return kept[1]
    kern = _kernel_values(spec, state.eig.eigenvalues.tolist())
    object.__setattr__(state, "_coefficients", (spec, kern))
    return kern


def _sum(kern: list[list[float]], at: list, bt: list) -> complex:
    """SUM_ij k_ij conj(At_ij) Bt_ij, row by row."""
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

    Bit for bit ``metric_form(spec, rho, a, a)``, with A taken into the
    eigenbasis once. Every term of the double sum is real at B = A, so a
    nonvanishing imaginary part can only signal an internal fault; it is
    checked against QUADRATIC_IMAG_TOL and never expected to fire.
    """
    state = _coerce_state(rho)
    (at,) = _eigenbasis(state, a)
    val = _sum(_kept_coefficients(state, spec), at, at)
    if abs(val.imag) > QUADRATIC_IMAG_TOL:
        raise MonometricError(
            f"quadratic form came out non-real: imag {val.imag:.3e}"
        )
    return val.real
