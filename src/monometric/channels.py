"""Completely positive trace-preserving maps in Kraus form.

A channel is a list of m x n operators K_i with SUM K_i* K_i = I; acting
as T(X) = SUM K_i X K_i*. Complete positivity is automatic in this
representation, so construction checks only trace preservation. Random
channels come from slicing a Haar-ish isometry (an orthonormalized
Gaussian block matrix) into k operator blocks, which satisfies the sum
rule by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DimensionMismatch, DomainError, MonometricError, unwrap
from .linalg import _trial_dims, as_matrix, frobenius
from .metric import DensityMatrix, MetricSpec, _coerce_state, metric_quadratic
from .sampling import ginibre, orthonormal_columns

TRACE_PRESERVATION_TOL = 1e-10
TRIAL_STATE_FLOOR = 1e-8
RESAMPLE_CAP = 10


@dataclass(frozen=True, eq=False)
class KrausChannel:
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.operators)
        if not ops:
            raise DomainError("channel needs at least one operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise DimensionMismatch("all operators must share one shape")
        if not all(np.isfinite(k).all() for k in ops):
            raise DomainError("channel operator has a non-finite entry")
        # SUM K*K = I bounds every entry's modulus by 1; a larger entry fails
        # trace preservation, and its square could overflow in the Gram sum
        big = max(float(np.abs(k).max(initial=0.0)) for k in ops)
        if big > 2.0:
            raise DomainError(f"operator entry of modulus {big:.3e} breaks trace preservation")
        object.__setattr__(self, "operators", ops)
        n = self.in_dim
        gram = sum(k.conj().T @ k for k in ops)
        defect = frobenius(gram - np.eye(n))
        if not defect <= TRACE_PRESERVATION_TOL:
            raise DomainError(f"trace preservation defect {defect:.3e}")

    @property
    def in_dim(self) -> int:
        return self.operators[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.operators[0].shape[0]


def apply_channel(channel: KrausChannel, x) -> np.ndarray:
    xm = as_matrix(x)
    n = channel.in_dim
    if xm.shape != (n, n):
        raise DimensionMismatch(f"channel input is {n}x{n}, got {xm.shape}")
    out = np.zeros((channel.out_dim, channel.out_dim), dtype=np.complex128)
    for k in channel.operators:
        out += k @ xm @ k.conj().T
    return out


def random_channel(n: int, m: int, k: int, seed: int) -> KrausChannel:
    """k-operator channel from M_n to M_m, deterministic in seed.

    The (m k) x n Gaussian draw is orthonormalized into an isometry and
    cut into k row blocks. A degenerate draw is redrawn up to 10 times
    before giving up.
    """
    n, m = _trial_dims((n, m))
    if k < 1:
        raise DomainError("need at least one operator")
    if m * k < n:
        raise DomainError(f"isometry needs m*k >= n, got {m * k} < {n}")
    rng = np.random.default_rng([seed])
    for _ in range(RESAMPLE_CAP):
        try:
            iso = orthonormal_columns(ginibre(rng, m * k, n))
        except DegenerateSample:
            continue
        blocks = tuple(iso[i * m : (i + 1) * m, :] for i in range(k))
        return KrausChannel(operators=blocks)
    raise DegenerateSample(f"no isometry after {RESAMPLE_CAP} draws")


@dataclass(frozen=True)
class TrialResult:
    lhs: float
    rhs: float
    slack: float


def monotonicity_trial(
    spec: MetricSpec,
    channel: KrausChannel,
    rho,
    a,
    image: DensityMatrix | MonometricError | None = None,
) -> TrialResult:
    """One contraction check: slack = K(A, A) - K(T(A), T(A)) at T(rho).

    Nonnegative slack is the contraction property; the image state must
    clear a 1e-8 eigenvalue floor or the trial raises NotAState for the
    caller to resample. A caller that validated the image state already,
    ``T(rho)`` under ``floor=TRIAL_STATE_FLOOR``, passes the outcome as
    ``image``: the state, or the error that rejected it, raised here.
    """
    state = _coerce_state(rho)
    rhs = metric_quadratic(spec, state, a)
    if image is None:
        image = DensityMatrix.from_matrix(
            apply_channel(channel, state.matrix), floor=TRIAL_STATE_FLOOR
        )
    lhs = metric_quadratic(spec, unwrap(image), apply_channel(channel, as_matrix(a)))
    return TrialResult(lhs=lhs, rhs=rhs, slack=rhs - lhs)
