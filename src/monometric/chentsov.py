"""Symmetric, -1-homogeneous kernel functions c(x, y) driving the metric.

Three interchangeable representations:

* ``BridgeMC``: the closed-form family
  c_g(x,y) = x^-g y^-g ((x+y)/2)^(2g-1), the golden reference that
  interpolates the largest kernel (g=1) and the smallest (g=0);
* ``CanonicalMC``: the integral form
  c(x,y) = (C0/(x+y)) exp INT_0^1 ((1-u^2)/(u^2+1))
           * ((x^2+y^2)/((x+u y)(u x+y))) h(u) du;
* ``FromMonotone``: c(x,y) = 1/(y f(x/y)) for an operator monotone f.

The integrand of ``CanonicalMC`` is the negative of the one of the
canonical monotone representation at t = x/y, so its integral is
``-weighted_kernel_integral(h, x/y)``, evaluated in closed form as a
sum over the breakpoints of h, with x/y and y/x giving the same value;
the raw integrand ``mc_kernel`` is kept for the quadrature oracle.

Both ``BridgeMC`` and ``CanonicalMC`` are symmetric to the bit:
canonical evaluation orders its arguments up front, and the closed form
multiplies and adds x and y in ways that IEEE arithmetic commutes. They
declare it with the class attribute ``symmetric = True``, which lets
``metric_form`` call them once per unordered pair of eigenvalues.
``FromMonotone`` opts out (``symmetric`` stays False): feeding it a
non-symmetric f must produce a visibly asymmetric kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .monotone import MonotoneFunction, WeightFunction, _kernel_integral_at_log, weighted_kernel_integral

HOMOGENEITY_FACTORS = (0.1, 0.5, 2.0, 10.0)


def mc_kernel(lam, x: float, y: float):
    """Integrand ((1-u^2)/(u^2+1)) * ((x^2+y^2)/((x+u y)(u x+y)))."""
    lam = np.asarray(lam, dtype=float)
    return ((1.0 - lam * lam) / (lam * lam + 1.0)) * (
        (x * x + y * y) / ((x + lam * y) * (lam * x + y))
    )


def _check_positive_pair(x: float, y: float) -> tuple[float, float]:
    x, y = float(x), float(y)
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise DomainError(f"kernel arguments ({x}, {y}) must be positive and finite")
    return x, y


def eval_bridge(gamma: float, x: float, y: float) -> float:
    """``BridgeMC(gamma)(x, y)``: the closed-form family value."""
    return BridgeMC(gamma)(x, y)


def c_from_f(f: MonotoneFunction, x: float, y: float) -> float:
    """Kernel induced by an operator monotone function: 1/(y f(x/y))."""
    x, y = _check_positive_pair(x, y)
    return 1.0 / (y * f(x / y))


def eval_canonical_c(c0: float, h: WeightFunction, x: float, y: float) -> float:
    """``CanonicalMC(c0, h)(x, y)``: the integral-form kernel value."""
    return CanonicalMC(c0, h)(x, y)


def normalize_C0(h: WeightFunction) -> float:
    """Scale giving c(1,1) = 1; explicit, no root-finding."""
    return 2.0 * math.exp(weighted_kernel_integral(h, 1.0))


class MCFunction:
    """Base for callable kernels c(x, y).

    ``symmetric`` is a class attribute, not a field: a subclass sets it to
    True only when c(x, y) == c(y, x) holds to the bit for every pair.
    """

    symmetric = False

    def __call__(self, x: float, y: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class BridgeMC(MCFunction):
    """Closed-form family x^-g y^-g ((x+y)/2)^(2g-1), g in [0,1]."""

    gamma: float
    symmetric = True

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"family parameter {self.gamma} outside [0,1]")

    def __call__(self, x: float, y: float) -> float:
        x, y = _check_positive_pair(x, y)
        g = self.gamma
        try:
            c = x ** (-g) * y ** (-g) * ((x + y) / 2.0) ** (2.0 * g - 1.0)
        except OverflowError:
            c = math.inf
        if 0.0 < c < math.inf:
            return c
        # a factor or a product beyond the float range: the value in the log
        # domain, inf only where the value itself is beyond it
        log_mean = math.log(max(x, y)) + math.log1p(min(x, y) / max(x, y)) - math.log(2.0)
        try:
            return math.exp(-g * (math.log(x) + math.log(y)) + (2.0 * g - 1.0) * log_mean)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class CanonicalMC(MCFunction):
    """Integral-form kernel; (x, y) is replaced by (max, min) first."""

    c0: float
    h: WeightFunction
    symmetric = True

    def __post_init__(self):
        if not 0.0 < self.c0 < math.inf:
            raise DomainError(f"scale constant {self.c0} not positive and finite")

    @classmethod
    def normalized(cls, h: WeightFunction) -> "CanonicalMC":
        return cls(c0=normalize_C0(h), h=h)

    def __call__(self, x: float, y: float) -> float:
        x, y = _check_positive_pair(x, y)
        hi, lo = (x, y) if x >= y else (y, x)
        ratio = hi / lo
        if ratio < math.inf:
            integral = weighted_kernel_integral(self.h, ratio)
            c = self.c0 / (hi + lo) * math.exp(-integral)
            # the integral is at most 0, so an infinite c0 / (x + y) makes c itself
            # infinite; where x + y overflows to make it 0, c is taken in the log domain
            if c > 0.0:
                return c
        else:
            # the ratio overflows, so t = lo / hi is below 2^-1024 and may round to 0
            integral = _kernel_integral_at_log(self.h, math.log(lo) - math.log(hi))
        try:
            return math.exp(math.log(self.c0) - math.log(hi) - math.log1p(lo / hi) - integral)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class FromMonotone(MCFunction):
    f: MonotoneFunction

    def __call__(self, x: float, y: float) -> float:
        return c_from_f(self.f, x, y)


def default_grid(n: int = 25) -> list[float]:
    """n log-spaced points from 1e-3 to 1e3."""
    return [float(v) for v in np.geomspace(1e-3, 1e3, n)]


def default_pair_grid(n: int = 25) -> list[tuple[float, float]]:
    axis = default_grid(n)
    return [(x, y) for x in axis for y in axis]


@dataclass(frozen=True)
class MCAxiomReport:
    """Worst residuals of the three defining properties over a grid."""

    symmetry_max: float
    homogeneity_max: float
    diagonal_max: float
    diagonal_constant: float


def check_mc_axioms(
    c: Callable[[float, float], float],
    pairs: Sequence[tuple[float, float]],
) -> MCAxiomReport:
    """Measure symmetry, -1-homogeneity and diagonal scaling residuals.

    Symmetry is reported as an absolute residual; homogeneity (at the
    HOMOGENEITY_FACTORS) and the diagonal law c(v, v) = C/v as relative
    ones. The reference constant C is taken at c(1, 1). A NaN kernel
    value makes the residuals it enters NaN.
    """
    sym = [0.0]
    hom = [0.0]
    for x, y in pairs:
        a = c(x, y)
        b = c(y, x)
        sym.append(abs(a - b))
        for fac in HOMOGENEITY_FACTORS:
            scaled = c(fac * x, fac * y)
            hom.append(abs(scaled - a / fac) / abs(a / fac))
    const = c(1.0, 1.0)
    diag = [0.0]
    for v in sorted({p for pair in pairs for p in pair}):
        diag.append(abs(v * c(v, v) - const) / abs(const))
    # np.max, unlike max(), passes a NaN residual through
    return MCAxiomReport(
        symmetry_max=float(np.max(sym)),
        homogeneity_max=float(np.max(hom)),
        diagonal_max=float(np.max(diag)),
        diagonal_constant=const,
    )
