"""Completely positive trace-preserving maps in Kraus form.

A channel is a list of m x n operators K_i with SUM K_i* K_i = I; acting
as T(X) = SUM K_i X K_i*. Complete positivity is automatic in this
representation, so construction checks only trace preservation. Random
channels come from slicing a Haar-ish isometry (an orthonormalized
Gaussian block matrix) into k operator blocks, which satisfies the sum
rule by construction.

Channels are drawn, checked and applied as stacks, each member with its
own outcome. ``random_channel_each`` gives every draw its own generator
``np.random.default_rng([seed])``, draws its Gaussians from it as
``random_channel`` does alone, orthonormalizes them with
``sampling.orthonormal_columns_each`` and checks the operator sets with
``_kraus_check``, the one check that ``KrausChannel`` also runs;
each draw gets its channel, bit for bit as alone, or its own error.
``_kraus_map`` is the one formula for T(X): ``apply_channel`` runs it on
one channel and ``apply_channel_each`` on a stack of channels per shape.
``monotonicity_trial_each`` owns a contraction trial and maps its states
and tangents as one stack. The batchers group with ``errors._batched``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSample, DimensionMismatch, DomainError, MonometricError, _batched, _outcome_of, unwrap
from .linalg import _seed, _trial_dims, as_matrix, dagger, frobenius
from .metric import DensityMatrix, MetricSpec, metric_quadratic
from .sampling import ginibre, orthonormal_columns_each

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
        unwrap(_kraus_check([k[None] for k in ops])[0])
        object.__setattr__(self, "operators", ops)

    @property
    def in_dim(self) -> int:
        return self.operators[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.operators[0].shape[0]


def _kraus_check(ops: Sequence[np.ndarray]) -> list[tuple[np.ndarray, ...] | DomainError]:
    """Per member of a stack of operator sets, in order: its operators, or
    the DomainError that keeps them from being a channel. ``ops`` holds
    the operators by index, each a stack (B, m, n) with one per member.

    A member fails on a non-finite entry, then on an entry of modulus
    above 2 (SUM K*K = I bounds every modulus by 1, and a larger entry's
    square could overflow in the Gram sum), then on a Gram defect
    ||SUM K*K - I||_F above TRACE_PRESERVATION_TOL. The Gram sum of a
    member that failed already is taken of zeros, so it raises no warning.
    """
    finite = np.logical_and.reduce([np.isfinite(k).all(axis=(1, 2)) for k in ops])
    big = np.maximum.reduce([np.abs(k).max(axis=(1, 2), initial=0.0) for k in ops])
    bounded = finite & (big <= 2.0)
    if not bounded.all():
        ops = [np.where(bounded[:, None, None], k, 0.0) for k in ops]
    gram = dagger(ops[0]) @ ops[0]
    for k in ops[1:]:
        gram = gram + dagger(k) @ k
    defect = frobenius(gram - np.eye(gram.shape[-1]))
    return [
        DomainError("channel operator has a non-finite entry") if not ok
        else DomainError(f"operator entry of modulus {b:.3e} breaks trace preservation") if not b <= 2.0
        else DomainError(f"trace preservation defect {d:.3e}") if not d <= TRACE_PRESERVATION_TOL
        else member
        for ok, b, d, member in zip(finite.tolist(), big.tolist(), defect.tolist(), zip(*ops))
    ]


def _channels(isos: list[np.ndarray]) -> list[KrausChannel | DomainError]:
    """Per isometry (k, m, n) of a list of one shape, in order: the channel
    of its k row blocks, or the error ``_kraus_check`` gives them. A channel
    is built without ``__post_init__``, which would repeat the check its
    stack has just passed: the one such build of a ``KrausChannel``."""
    out = _kraus_check([np.stack(k) for k in zip(*isos)])
    for b, ops in enumerate(out):
        if isinstance(ops, tuple):
            out[b] = object.__new__(KrausChannel)
            object.__setattr__(out[b], "operators", ops)
    return out


def _kraus_map(ops: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """SUM_i K_i X K_i*, added in operator order onto zeros. The K_i are
    (m, n) matrices on an (n, n) X, or stacks (B, m, n) on a stack
    (B, n, n), one channel and input per member."""
    out = np.zeros(x.shape[:-2] + (ops[0].shape[-2],) * 2, dtype=np.complex128)
    for k in ops:
        out += k @ x @ dagger(k)
    return out


def _input(channel: KrausChannel, x) -> np.ndarray:
    """``x`` as a matrix, if it is n x n for a channel from M_n."""
    xm = as_matrix(x)
    n = channel.in_dim
    if xm.shape != (n, n):
        raise DimensionMismatch(f"channel input is {n}x{n}, got {xm.shape}")
    return xm


def apply_channel(channel: KrausChannel, x) -> np.ndarray:
    return _kraus_map(channel.operators, _input(channel, x))


def apply_channel_each(channels: Sequence[KrausChannel], xs) -> list[np.ndarray | MonometricError]:
    """Per pair of ``channels`` and ``xs``, in order: ``apply_channel(channel,
    x)``, bit for bit, or the error it raises; an error in place of a
    channel or of an input is the pair's outcome. The pairs whose channels
    have the same number and shape of operators are mapped as one stack."""

    def images(pairs):
        ops = zip(*(c.operators for c, _ in pairs))
        return list(_kraus_map([np.stack(k) for k in ops], np.stack([x for _, x in pairs])))

    pairs = [_outcome_of(lambda c, x: (c, _input(c, x)), c, x) for c, x in zip(channels, xs)]
    return _batched(pairs, lambda p: (len(p[0].operators), *p[0].operators[0].shape), images)


def random_channel(n: int, m: int, k: int, seed: int) -> KrausChannel:
    """k-operator channel from M_n to M_m, deterministic in seed.

    The (m k) x n Gaussian draw is orthonormalized into an isometry and
    cut into k row blocks. A degenerate draw is redrawn from the same
    generator, up to RESAMPLE_CAP draws in all, before giving up.
    """
    return unwrap(random_channel_each([(n, m, k, seed)])[0])


def _intake(n, m, k, seed) -> tuple[tuple[int, int, int], np.random.Generator]:
    """A draw's operator shape (k, m, n) and its generator
    ``np.random.default_rng([seed])``, or it raises the draw's DomainError."""
    n, m = _trial_dims((n, m))
    try:
        count = operator.index(k)
    except TypeError:
        count = 0
    if count < 1:
        raise DomainError(f"need a whole number of operators, at least one, got {k!r}")
    if m * count < n:
        raise DomainError(f"isometry needs m*k >= n, got {m * count} < {n}")
    return (count, m, n), np.random.default_rng([_seed(seed)])


def random_channel_each(draws) -> list[KrausChannel | MonometricError]:
    """Per draw ``(n, m, k, seed)``, in order: ``random_channel(n, m, k,
    seed)``, bit for bit, or the error it raises.

    Every draw has its own generator and draws its Gaussians from it as
    alone. The Gaussians of a round are orthonormalized together, one
    stack per shape (m k, n); a degenerate member is redrawn in the next
    round, up to RESAMPLE_CAP draws in all, while the others keep theirs.
    The operator sets are then checked together, one stack per shape
    (k, m, n), by the check ``KrausChannel`` runs.
    """
    out = [_outcome_of(_intake, *draw) for draw in draws]
    pending = {i: intake for i, intake in enumerate(out) if not isinstance(intake, MonometricError)}
    for _ in range(RESAMPLE_CAP):
        if not pending:
            break
        drawn = list(pending)
        gaussians = [ginibre(rng, k * m, n) for (k, m, n), rng in pending.values()]
        for i, iso in zip(drawn, orthonormal_columns_each(gaussians)):
            if not isinstance(iso, DegenerateSample):
                out[i] = iso.reshape(pending.pop(i)[0])
    for i in pending:
        out[i] = DegenerateSample(f"no isometry after {RESAMPLE_CAP} draws")
    return _batched(out, np.shape, _channels)


@dataclass(frozen=True)
class TrialResult:
    lhs: float
    rhs: float
    slack: float


def monotonicity_trial(spec: MetricSpec, channel: KrausChannel, rho, a) -> TrialResult:
    """One contraction check: slack = K(A, A) - K(T(A), T(A)) at T(rho).

    Nonnegative slack is the contraction property; the image state must
    clear a 1e-8 eigenvalue floor or the trial raises NotAState for the
    caller to resample. A DensityMatrix ``rho`` is used as it is, any
    other is validated first.
    """
    state = rho if isinstance(rho, DensityMatrix) else DensityMatrix.from_matrices([rho])[0]
    return unwrap(monotonicity_trial_each(spec, [channel], [state], [a])[0])


def monotonicity_trial_each(spec, channels, states, tangents) -> list[TrialResult | MonometricError]:
    """Per trial, in order: ``monotonicity_trial(spec, channel, rho, a)``,
    bit for bit, or the error it raises; each state is a ``from_matrices``
    outcome. A trial's first error, of its channel, its state, K(A, A) at
    rho, then its image T(rho), is its outcome. One ``apply_channel_each``
    maps states and tangents; the images are validated under TRIAL_STATE_FLOOR."""
    trials = zip(channels, states, tangents, strict=True)  # so the halves of the map line up
    rhs = [_outcome_of(metric_quadratic, spec, state, a) for _, state, a in trials]
    matrices = [q if isinstance(q, MonometricError) else s.matrix for q, s in zip(rhs, states)]
    mapped = apply_channel_each([*channels, *channels], [*matrices, *tangents])
    images = DensityMatrix.from_matrices(mapped[: len(matrices)], floor=TRIAL_STATE_FLOOR)
    lhs = [_outcome_of(metric_quadratic, spec, *pair) for pair in zip(images, mapped[len(matrices) :])]
    return [q if isinstance(q, MonometricError) else TrialResult(q, r, r - q) for r, q in zip(rhs, lhs)]
