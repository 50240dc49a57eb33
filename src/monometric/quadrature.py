"""Adaptive Gauss-Kronrod quadrature on finite intervals.

A 7-point Gauss rule embedded in a 15-point Kronrod rule drives global
adaptive bisection: the panel with the largest error estimate is split
until the summed estimate meets the tolerance or the subdivision cap is
hit. The integrands in this package are smooth on every panel they are
given (weight functions are applied piecewise), so the rule converges
fast and no endpoint special-casing is performed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

# Kronrod-15 abscissae on [-1, 1] (positive half; symmetric) and weights.
# Every second node is a Gauss-7 node.
_XGK = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK = np.array([
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472783,
])
_WG = np.array([
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.41795918367346935,
])

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # 15 nodes ascending
_WEIGHTS_K = np.concatenate((_WGK[:-1], _WGK[::-1]))
# Gauss-7 nodes sit at odd positions of the 15-node vector.
_GAUSS_IDX = np.arange(1, 15, 2)
_WEIGHTS_G = np.concatenate((_WG[:-1], _WG[::-1]))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision cap for adaptive integration."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUAD = QuadratureConfig()


def _panel(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Evaluate the GK 7-15 pair on [a, b]; return (kronrod, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = np.asarray(fn(mid + half * _NODES), dtype=float)
    resk = half * float(_WEIGHTS_K @ fv)
    resg = half * float(_WEIGHTS_G @ fv[_GAUSS_IDX])
    # Scale-aware estimate (QUADPACK style): sharpen |K15-G7| against the
    # deviation integral so smooth panels report near machine accuracy.
    resasc = abs(half) * float(_WEIGHTS_K @ np.abs(fv - resk / (b - a)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    quad: QuadratureConfig = DEFAULT_QUAD,
) -> tuple[float, float]:
    """Integrate ``fn`` over [a, b] adaptively.

    ``fn`` must accept a numpy vector of abscissae and return the integrand
    values elementwise. Returns ``(value, error_estimate)``.

    Raises QuadratureFailure when the estimate still exceeds
    ``max(abs_tol, rel_tol * |value|)`` after ``max_subdivisions`` splits.
    """
    if a == b:
        return 0.0, 0.0
    value, err = _panel(fn, a, b)
    heap = [(-err, a, b, value, err)]
    total, total_err = value, err
    for _ in range(quad.max_subdivisions):
        if total_err <= max(quad.abs_tol, quad.rel_tol * abs(total)):
            return total, total_err
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(fn, lo, mid)
        v2, e2 = _panel(fn, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    if total_err <= max(quad.abs_tol, quad.rel_tol * abs(total)):
        return total, total_err
    raise QuadratureFailure(
        f"error estimate {total_err:.3e} above tolerance after "
        f"{quad.max_subdivisions} subdivisions on [{a}, {b}]"
    )
