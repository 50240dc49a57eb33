"""Seeded input streams for the benchmark workloads, built with numpy only.

Nothing here calls ``monometric``: a change to ``monometric.sampling``
cannot change what the benchmark measures. Each workload consumes its
stream in rounds; round ``r`` of seed ``s`` is a pure function of
``(s, r)``, so every run with the same seed sees the same inputs in the
same order however many rounds it gets through.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# verify-all: the ROADMAP's headline command, repeated with the run's seed.
VERIFY_ARGS = ("verify", "--suite", "all", "--trials", "200", "--dims", "2,3")

# kernel-grid: weights per round; each weight is evaluated at RATIOS ratio
# pairs (r, 1/r), with log10 r drawn once from each of RATIOS equal strata
# of [0, 10]. That crosses the 1e8 flip guards of the canonical evaluators
# on about a fifth of the draws.
KERNEL_WEIGHTS = 48
RATIOS = 4
MAX_PIECES = 16
ANCHOR_EVERY = 8
ZERO_PIECE_P = 0.25

# metric-states: (dim, bridge states, canonical states) per round. Dims 8,
# 16 and 32 each take about a third of a round's time on the seed code, and
# no dimension takes most of it. Dim 32 uses closed-form kernels only: one
# canonical state there costs seconds of quadrature.
STATE_COUNTS = ((2, 12, 12), (3, 12, 12), (8, 12, 12), (16, 3, 3), (32, 3, 0))
BRIDGE_GAMMAS = (0.0, 0.5, 1.0)

SMOKE_KERNEL_WEIGHTS = 4
SMOKE_STATE_COUNTS = ((2, 2, 2), (3, 2, 2), (8, 1, 1))
SMOKE_VERIFY_ARGS = ("verify", "--suite", "all", "--trials", "4", "--dims", "2,3")


@dataclass(frozen=True)
class Weight:
    """Piecewise-constant weight on [0, 1]; ``anchor`` marks a constant one."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    anchor: bool


@dataclass(frozen=True)
class KernelItem:
    weight: Weight
    ratios: np.ndarray  # r >= 1, evaluated at r and 1/r
    scales: np.ndarray  # y for the kernel pair (r y, y)


@dataclass(frozen=True)
class StateItem:
    rho: np.ndarray
    gamma: float | None  # BridgeMC parameter, or None for a canonical kernel
    weight: Weight | None
    herm: tuple[np.ndarray, np.ndarray]
    nonherm: tuple[np.ndarray, np.ndarray]


def _rng(seed: int, workload: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, round_index])


def _weight(rng: np.random.Generator, pieces: int) -> Weight:
    interior = np.unique(rng.uniform(0.0, 1.0, pieces - 1))
    interior = interior[(interior > 0.0) & (interior < 1.0)]
    breakpoints = (0.0, *(float(b) for b in interior), 1.0)
    values = rng.uniform(0.0, 1.0, len(breakpoints) - 1)
    values[rng.uniform(size=len(values)) < ZERO_PIECE_P] = 0.0
    return Weight(breakpoints, tuple(float(v) for v in values), anchor=False)


def _anchor(rng: np.random.Generator) -> Weight:
    value = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
    return Weight((0.0, 1.0), (value,), anchor=True)


def kernel_round(seed: int, round_index: int, smoke: bool = False) -> list[KernelItem]:
    """One round of weights: every ANCHOR_EVERY-th a constant anchor.

    Piece counts of the other weights are spread evenly over 1..16 in a
    shuffled order, and the ratios are stratified, so a round's quadrature
    load does not hinge on a few draws.
    """
    rng = _rng(seed, 1, round_index)
    count = SMOKE_KERNEL_WEIGHTS if smoke else KERNEL_WEIGHTS
    randoms = count - len(range(0, count, ANCHOR_EVERY))
    pieces = list(rng.permutation([1 + int((i + 0.5) * MAX_PIECES / randoms) for i in range(randoms)]))
    items = []
    for k in range(count):
        if k % ANCHOR_EVERY == 0:
            weight = _anchor(rng)
        else:
            weight = _weight(rng, int(pieces.pop()))
        ratios = 10.0 ** ((np.arange(RATIOS) + rng.uniform(size=RATIOS)) * (10.0 / RATIOS))
        scales = 10.0 ** rng.uniform(-3.0, 3.0, RATIOS)
        items.append(KernelItem(weight, ratios, scales))
    return items


def _density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ridge = 10.0 ** rng.uniform(-2.0, -1.0)
    w = g @ g.conj().T / n + ridge * np.eye(n)
    w = 0.5 * (w + w.conj().T)
    return w / np.trace(w).real


def _tangent(rng: np.random.Generator, n: int, hermitian: bool) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T) if hermitian else g


def state_round(seed: int, round_index: int, smoke: bool = False) -> list[StateItem]:
    """One round of states, shuffled, with bridge and canonical kernels.

    Bridge states cycle through BRIDGE_GAMMAS. Canonical weights of one
    dimension get piece counts spread evenly over 1..16, so a round's
    quadrature load does not hinge on a few draws.
    """
    rng = _rng(seed, 2, round_index)
    items = []
    for n, bridge, canonical in SMOKE_STATE_COUNTS if smoke else STATE_COUNTS:
        pieces = [1 + int((i + 0.5) * MAX_PIECES / canonical) for i in range(canonical)]
        for k in range(bridge + canonical):
            rho = _density(rng, n)
            herm = (_tangent(rng, n, True), _tangent(rng, n, True))
            nonherm = (_tangent(rng, n, False), _tangent(rng, n, False))
            if k < bridge:
                gamma, weight = BRIDGE_GAMMAS[k % len(BRIDGE_GAMMAS)], None
            else:
                gamma, weight = None, _weight(rng, pieces.pop())
            items.append(StateItem(rho, gamma, weight, herm, nonherm))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def verify_argv(seed: int, smoke: bool = False) -> list[str]:
    return [*(SMOKE_VERIFY_ARGS if smoke else VERIFY_ARGS), "--seed", str(seed)]


def digest(inputs) -> str:
    """sha256 over every number and flag in a round of inputs."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for x in obj:
                feed(x)
            h.update(b"]")
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                feed(getattr(obj, name))
        else:
            h.update(repr(obj).encode())

    feed(inputs)
    return h.hexdigest()

