"""Positive operator monotone functions on (0, oo) and their transforms.

The central object is the canonical representation

    f(t) = e^beta * (1+t)/sqrt(2)
           * exp INT_0^1 ((u^2-1)/(u^2+1)) * ((1+t^2)/((u+t)(1+u t))) h(u) du

parametrized by a real shift ``beta`` and a weight ``h: [0,1] -> [0,1]``.
Weights are kept piecewise constant, which keeps every representation
easy to serialize and makes the integral exact in closed form: the
integrand splits into partial fractions 2u/(1+u^2) - 1/(u+t) - t/(1+ut),
whose antiderivative is log((1+u^2) / ((u+t)(1+ut))), so the integral is
a sum over the pieces. Adaptive quadrature is only the independent
oracle that ``verify`` and the tests check this sum against. The module
also provides the closed-form one-parameter family interpolating the
minimal function 2t/(1+t) and the maximal one (1+t)/2, discrete
Kubo-Ando mixtures, the sharp and tilde transforms, and the
logarithmic-coordinates view (functions monotone for the exponential
order) with its weight extension to the negative half-line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .linalg import dagger, hermitian_eig_stack

SQRT2 = math.sqrt(2.0)
# check_operator_monotone passes when min eig(f(B) - f(A)) >= -this
OPERATOR_MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class WeightFunction:
    """Piecewise-constant weight on [0,1] with values in [0,1].

    ``breakpoints`` has one more entry than ``values``; piece i covers
    [breakpoints[i], breakpoints[i+1]) and the last piece is closed.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise DomainError("need n+1 breakpoints for n piece values")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise DomainError("breakpoints must start at 0 and end at 1")
        if any(not b1 < b2 for b1, b2 in zip(bp, bp[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if any(not (0.0 <= v <= 1.0) for v in vals):
            raise DomainError("weight values must lie in [0,1]")

    @classmethod
    def constant(cls, value: float) -> "WeightFunction":
        return cls(breakpoints=(0.0, 1.0), values=(float(value),))

    def __call__(self, lam: float) -> float:
        if not 0.0 <= lam <= 1.0:
            raise DomainError(f"weight argument {lam} outside [0,1]")
        for i in range(len(self.values)):
            if lam < self.breakpoints[i + 1]:
                return self.values[i]
        return self.values[-1]

    def pieces(self) -> Iterator[tuple[float, float, float]]:
        for i, v in enumerate(self.values):
            yield self.breakpoints[i], self.breakpoints[i + 1], v

    def blend(self, other: "WeightFunction", s: float) -> "WeightFunction":
        """Pointwise mixture s*self + (1-s)*other, s in [0,1]."""
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"mixture parameter {s} outside [0,1]")
        merged = sorted(set(self.breakpoints) | set(other.breakpoints))
        vals = []
        for lo, hi in zip(merged, merged[1:]):
            mid = 0.5 * (lo + hi)
            vals.append(s * self(mid) + (1.0 - s) * other(mid))
        return WeightFunction(breakpoints=tuple(merged), values=tuple(vals))


def symmetric_kernel(lam, t: float):
    """Integrand factor ((u^2-1)/(u^2+1)) * ((1+t^2)/((u+t)(1+u t)))."""
    lam = np.asarray(lam, dtype=float)
    return ((lam * lam - 1.0) / (lam * lam + 1.0)) * (
        (1.0 + t * t) / ((lam + t) * (1.0 + lam * t))
    )


def _kernel_antiderivative(u: float, t: float) -> float:
    """log((1+u^2) / ((u+t)(1+u t))), an antiderivative of symmetric_kernel in u."""
    return math.log1p(u * u) - math.log(u + t) - math.log1p(u * t)


def weighted_kernel_integral(h: WeightFunction, t: float) -> float:
    """INT_0^1 symmetric_kernel(u, t) h(u) du in closed form.

    Each piece [lo, hi) of value v contributes v * (G(hi) - G(lo)) with
    G the antiderivative above; pieces with zero weight are skipped.
    """
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(f"argument {t} not positive and finite")
    total = 0.0
    for lo, hi, v in h.pieces():
        if v != 0.0:
            total += v * (_kernel_antiderivative(hi, t) - _kernel_antiderivative(lo, t))
    return total


def eval_gamma_family(gamma: float, t: float) -> float:
    """Closed-form family t^g ((1+t)/2)^(1-2g), g in [0,1].

    g=0 is the maximal function (1+t)/2, g=1 the minimal 2t/(1+t),
    g=1/2 the square root; all normalized to f(1)=1.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"family parameter {gamma} outside [0,1]")
    if not 0.0 < t < math.inf:
        raise DomainError(f"argument {t} not positive and finite")
    return t**gamma * ((1.0 + t) / 2.0) ** (1.0 - 2.0 * gamma)


def eval_canonical_f(beta: float, h: WeightFunction, t: float) -> float:
    """Evaluate the canonical (beta, h) representation at t in (0, oo)."""
    t = float(t)
    return math.exp(beta) * (1.0 + t) / SQRT2 * math.exp(weighted_kernel_integral(h, t))


def closed_form_kernel_integral(t: float) -> float:
    """log(2t/(1+t)^2): the h == 1 kernel integral in closed form."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"argument {t} not positive and finite")
    return math.log(2.0 * t) - 2.0 * math.log1p(t)


def normalize_beta(h: WeightFunction) -> float:
    """Shift making the canonical representation hit f(1) = 1."""
    return -math.log(SQRT2) - weighted_kernel_integral(h, 1.0)


class MonotoneFunction:
    """A positive operator monotone function on (0, oo).

    Subclasses implement ``_value``; ``__call__`` adds the shared domain
    check. Instances are immutable and safe to share.
    """

    def _value(self, t: float) -> float:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        t = float(t)
        if not 0.0 < t < math.inf:
            raise DomainError(f"argument {t} not positive and finite")
        return self._value(t)


@dataclass(frozen=True)
class GammaFamily(MonotoneFunction):
    """Member of the closed-form family; covers min, max and sqrt."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"family parameter {self.gamma} outside [0,1]")

    def _value(self, t: float) -> float:
        return eval_gamma_family(self.gamma, t)


@dataclass(frozen=True)
class Identity(MonotoneFunction):
    """f(t) = t. Operator monotone but not symmetric."""

    def _value(self, t: float) -> float:
        return t


@dataclass(frozen=True)
class ConstantOne(MonotoneFunction):
    """f(t) = 1. Operator monotone but not symmetric."""

    def _value(self, t: float) -> float:
        return 1.0


def minimal_function() -> MonotoneFunction:
    return GammaFamily(1.0)


def maximal_function() -> MonotoneFunction:
    return GammaFamily(0.0)


def sqrt_function() -> MonotoneFunction:
    return GammaFamily(0.5)


@dataclass(frozen=True)
class CanonicalMonotone(MonotoneFunction):
    """Canonical (beta, h) representation."""

    beta: float
    h: WeightFunction

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise DomainError(f"shift beta {self.beta} not finite")

    @classmethod
    def normalized(cls, h: WeightFunction) -> "CanonicalMonotone":
        return cls(beta=normalize_beta(h), h=h)

    def _value(self, t: float) -> float:
        return eval_canonical_f(self.beta, self.h, t)


def eval_kubo_ando(atoms: Sequence[tuple[float, float]], t: float) -> float:
    """Discrete mixture sum w_i * t(1+s_i)/(t+s_i), s in [0, oo].

    The point at infinity contributes w*t; s=0 contributes w.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"argument {t} not positive and finite")
    total = 0.0
    for s, w in atoms:
        if not w > 0.0:
            raise DomainError(f"atom weight {w} not positive")
        if math.isinf(s):
            total += w * t
        elif s < 0.0:
            raise DomainError(f"atom location {s} negative")
        else:
            total += w * t * (1.0 + s) / (t + s)
    return total


@dataclass(frozen=True)
class KuboAndo(MonotoneFunction):
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((float(s), float(w)) for s, w in self.atoms)
        )
        if not self.atoms:
            raise DomainError("need at least one atom")
        for s, w in self.atoms:
            if not w > 0.0:
                raise DomainError(f"atom weight {w} not positive")
            if not math.isinf(s) and s < 0.0:
                raise DomainError(f"atom location {s} negative")

    def _value(self, t: float) -> float:
        return eval_kubo_ando(self.atoms, t)


@dataclass(frozen=True)
class SharpOf(MonotoneFunction):
    """t * base(1/t); applying it twice returns to base pointwise."""

    base: MonotoneFunction

    def _value(self, t: float) -> float:
        return t * self.base(1.0 / t)


@dataclass(frozen=True)
class TildeOf(MonotoneFunction):
    """Harmonic mean of base and its sharp; always symmetric."""

    base: MonotoneFunction

    def _value(self, t: float) -> float:
        a = self.base(t)
        b = t * self.base(1.0 / t)
        return 2.0 * a * b / (a + b)


def sharp(f: MonotoneFunction) -> MonotoneFunction:
    return SharpOf(f)


def tilde(f: MonotoneFunction) -> MonotoneFunction:
    return TildeOf(f)


def check_functional_equation(
    f: Callable[[float], float], grid: Sequence[float]
) -> float:
    """Max over the grid of |f(t) - t*f(1/t)|. Zero means symmetric; NaN
    means f gave NaN somewhere."""
    residuals = [0.0]
    for t in grid:
        t = float(t)
        if not 0.0 < t < math.inf:
            raise DomainError(f"grid point {t} not positive and finite")
        residuals.append(abs(f(t) - t * f(1.0 / t)))
    # np.max, unlike max(), passes a NaN residual through
    return float(np.max(residuals))


@dataclass(frozen=True)
class ExpOrderFunction:
    """Monotone function for the exponential order, symmetric subclass.

    Stores the same (beta, h) data as the canonical multiplicative
    representation; values relate by exp(F(log t)) = f(t).
    """

    beta: float
    h: WeightFunction

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise DomainError(f"shift beta {self.beta} not finite")

    def __call__(self, x: float) -> float:
        return eval_exp_order(self, x)

    def to_monotone(self) -> CanonicalMonotone:
        return CanonicalMonotone(beta=self.beta, h=self.h)


def eval_exp_order(F: ExpOrderFunction, x: float) -> float:
    """Evaluate F at real x, as log f(e^x).

    The domain is where e^x is a positive finite float, about
    -745 < x < 709.78; outside it DomainError is raised.
    """
    x = float(x)
    try:
        ex = math.exp(x)
    except OverflowError:
        ex = math.inf
    if not 0.0 < ex < math.inf:
        raise DomainError(f"argument {x} outside the range where e^x is a positive float")
    return F.beta + math.log((1.0 + ex) / SQRT2) + weighted_kernel_integral(F.h, ex)


def to_monotone(F: ExpOrderFunction) -> CanonicalMonotone:
    """Cross to the multiplicative side: t -> exp F(log t)."""
    return F.to_monotone()


@dataclass(frozen=True)
class ExtendedWeight:
    """Weight extended from [0,1] to the whole half-line (-oo, 0].

    Mirror rule on [-1,0]: value at mu is h(-mu). Reciprocal rule on
    (-oo,-1): value at mu is 1 - h(1/|mu|). Together they satisfy
    ext(1/mu) + ext(mu) = 1 away from breakpoints.
    """

    h: WeightFunction

    def __call__(self, mu: float) -> float:
        if mu > 0.0:
            raise DomainError(f"extension argument {mu} positive")
        if mu >= -1.0:
            return self.h(-mu)
        return 1.0 - self.h(1.0 / -mu)

    def mirror_pieces(self) -> list[tuple[float, float, float]]:
        """Pieces covering [-1, 0], ascending."""
        return [(-hi, -lo, v) for lo, hi, v in reversed(list(self.h.pieces()))]

    def far_pieces(self) -> list[tuple[float, float, float]]:
        """Pieces covering (-oo, -1], ascending; first lo is -inf."""
        out = []
        for lo, hi, v in self.h.pieces():
            left = -math.inf if lo == 0.0 else -1.0 / lo
            out.append((left, -1.0 / hi, 1.0 - v))
        return out


def extend_weight(h: WeightFunction) -> ExtendedWeight:
    return ExtendedWeight(h)


@dataclass(frozen=True)
class OperatorMonotoneReport:
    """Outcome of matrix-order sampling for one candidate function."""

    worst: float
    passed: bool
    trials: int
    dims: tuple[int, ...]
    seed: int
    tol: float
    worst_trial: int
    worst_dim: int


def _ordered_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample 0 < A <= B via Gram matrices: A = 0.05 I + G*G, B = A + H*H."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.05 * np.eye(n) + g.conj().T @ g
    b = a + h.conj().T @ h
    return a, b


def check_operator_monotone(
    f: Callable[[float], float],
    trials: int,
    dims: Sequence[int],
    seed: int,
) -> OperatorMonotoneReport:
    """Sample ordered pairs A <= B and test f(A) <= f(B) spectrally.

    Per-trial generators are derived from (seed, trial index), so any
    single trial can be reproduced in isolation. The trials of one
    dimension are diagonalized together: all A, all B, then all
    f(B) - f(A), each as one stack, while f is applied eigenvalue by
    eigenvalue in trial order. The report carries the most negative
    eigenvalue of f(B) - f(A) seen and the first trial where it occurred.
    A non-finite value of f stops the check at that trial with worst NaN,
    which does not pass.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    dims = tuple(int(d) for d in dims)
    if any(not 2 <= d <= 8 for d in dims):
        raise DomainError("dims must lie in [2, 8]")
    # per trial, its dimension and its place in that dimension's stacks
    slots = []
    pairs: dict[int, list] = {}
    for trial in range(trials):
        n = dims[trial % len(dims)]
        members = pairs.setdefault(n, [])
        slots.append((n, len(members)))
        members.append(_ordered_pair(np.random.default_rng([seed, trial]), n))
    decs = {
        n: tuple(hermitian_eig_stack(np.stack(side)) for side in zip(*members))
        for n, members in pairs.items()
    }
    values: dict[int, tuple[list, list]] = {n: ([], []) for n in pairs}
    for trial, (n, j) in enumerate(slots):
        dec_a, dec_b = decs[n]
        vals_a = [f(w) for w in dec_a.eigenvalues[j]]
        vals_b = [f(w) for w in dec_b.eigenvalues[j]]
        if not np.isfinite(vals_a + vals_b).all():
            # a non-finite value of f fails the check; it is no matrix to diagonalize
            worst, worst_trial, worst_dim = math.nan, trial, n
            break
        values[n][0].append(vals_a)
        values[n][1].append(vals_b)
    else:
        gaps = {}
        for n, (dec_a, dec_b) in decs.items():
            fa, fb = (
                (dec.eigenvectors * np.array(vals)[:, None, :]) @ dagger(dec.eigenvectors)
                for dec, vals in zip((dec_a, dec_b), values[n])
            )
            gaps[n] = hermitian_eig_stack(fb - fa).eigenvalues[:, 0]
        gap = [gaps[n][j] for n, j in slots]
        worst_trial = int(np.argmin(gap))
        worst = float(gap[worst_trial])
        worst_dim = slots[worst_trial][0]
    return OperatorMonotoneReport(
        worst=worst,
        passed=worst >= -OPERATOR_MONOTONE_TOL,
        trials=trials,
        dims=dims,
        seed=seed,
        tol=OPERATOR_MONOTONE_TOL,
        worst_trial=worst_trial,
        worst_dim=worst_dim,
    )
