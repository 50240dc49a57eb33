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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSample, DimensionMismatch, DomainError, MonometricError, unwrap
from .linalg import _trial_dims, as_matrix, dagger, frobenius
from .metric import DensityMatrix, MetricSpec, _coerce_state, metric_quadratic
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


def _kraus_check(ops: Sequence[np.ndarray]) -> list[DomainError | None]:
    """Per member of a stack of operator sets, in order: the DomainError
    that keeps its operators from being a channel, or None. ``ops`` holds
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
        else None
        for ok, b, d in zip(finite.tolist(), big.tolist(), defect.tolist())
    ]


def _groups(keys) -> list[list[int]]:
    """The indices of each distinct key, in order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


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


def apply_channel_each(channels: Sequence[KrausChannel], xs) -> list[np.ndarray]:
    """Per pair of ``channels`` and ``xs``, in order: ``apply_channel(channel,
    x)``, bit for bit. The pairs whose channels have the same number and
    shape of operators are mapped as one stack."""
    xs = [_input(c, x) for c, x in zip(channels, xs)]
    out: list = [None] * len(xs)
    for members in _groups((len(c.operators), *c.operators[0].shape) for c in channels):
        count = len(channels[members[0]].operators)
        ops = [np.stack([channels[j].operators[i] for j in members]) for i in range(count)]
        for j, y in zip(members, _kraus_map(ops, np.stack([xs[j] for j in members]))):
            out[j] = y
    return out


def random_channel(n: int, m: int, k: int, seed: int) -> KrausChannel:
    """k-operator channel from M_n to M_m, deterministic in seed.

    The (m k) x n Gaussian draw is orthonormalized into an isometry and
    cut into k row blocks. A degenerate draw is redrawn from the same
    generator, up to RESAMPLE_CAP draws in all, before giving up.
    """
    return unwrap(random_channel_each([(n, m, k, seed)])[0])


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
    out: list = [None] * len(draws)
    shapes, pending = {}, {}
    for i, (n, m, k, seed) in enumerate(draws):
        try:
            n, m = _trial_dims((n, m))
            if k < 1:
                raise DomainError("need at least one operator")
            if m * k < n:
                raise DomainError(f"isometry needs m*k >= n, got {m * k} < {n}")
        except MonometricError as exc:
            out[i] = exc
            continue
        shapes[i] = (k, m, n)
        pending[i] = np.random.default_rng([seed])
    for _ in range(RESAMPLE_CAP):
        if not pending:
            break
        drawn = list(pending)
        gaussians = [ginibre(pending[i], shapes[i][0] * shapes[i][1], shapes[i][2]) for i in drawn]
        for i, iso in zip(drawn, orthonormal_columns_each(gaussians)):
            if not isinstance(iso, DegenerateSample):
                del pending[i]
                out[i] = iso.reshape(shapes[i])
    for i in pending:
        out[i] = DegenerateSample(f"no isometry after {RESAMPLE_CAP} draws")
    drawn = [i for i in shapes if i not in pending]
    for members in _groups(shapes[i] for i in drawn):
        group = [drawn[j] for j in members]
        ops = [np.stack([out[i][j] for i in group]) for j in range(shapes[group[0]][0])]
        for b, (i, error) in enumerate(zip(group, _kraus_check(ops))):
            if error is None:
                # the one channel built without __post_init__, which would
                # repeat the check its stack has just passed
                out[i] = object.__new__(KrausChannel)
                object.__setattr__(out[i], "operators", tuple(k[b] for k in ops))
            else:
                out[i] = error
    return out


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
