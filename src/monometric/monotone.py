"""Positive operator monotone functions on (0, oo) and their transforms.

The central object is the canonical representation

    f(t) = e^beta * (1+t)/sqrt(2)
           * exp INT_0^1 ((u^2-1)/(u^2+1)) * ((1+t^2)/((u+t)(1+u t))) h(u) du

parametrized by a real shift ``beta`` and a weight ``h: [0,1] -> [0,1]``.
The formula is written once, in log form, by ``CanonicalMonotone.log_value``:
log f(t) = beta + (log((1+t)/sqrt(2)) + I(h, t)), the h part grouped
first. f is its exponential, so f is finite exactly where log f fits a
float (log f(t) at most about 709.78) and raises DomainError beyond. The
exponential-order view F(x) = log f(e^x) and ``normalize_beta`` read the
same sum, so a normalized f gives f(1) == 1.0 exactly.
Weights are kept piecewise constant, which keeps every representation
easy to serialize and makes the integral exact in closed form: the
integrand splits into partial fractions 2u/(1+u^2) - 1/(u+t) - t/(1+ut),
whose antiderivative is G(u) = log1p(u^2) - log(u+t) - log1p(ut). Summed
by parts, the integral is a sum over the weight's breakpoints b_k of
d_k * G(b_k), where d_k is the jump of h there (the value before minus
the value after, h being 0 outside [0,1]). The log1p(b_k^2) part depends
on h only and is kept with the weight; each argument costs two logs per
nonzero jump. The integrand is invariant under t -> 1/t, so arguments
above 1 are folded to 1/t first. Adaptive quadrature is only the
independent oracle that ``verify`` and the tests check this sum against.
The module also provides the closed-form one-parameter family
interpolating the minimal function 2t/(1+t) and the maximal one
(1+t)/2, discrete Kubo-Ando mixtures, the sharp and tilde transforms,
and the logarithmic-coordinates view (functions monotone for the
exponential order) with its weight extension to the negative half-line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, unwrap
from .linalg import _seed, _trial_count, _trial_dims, hermitian_eig_each

SQRT2 = math.sqrt(2.0)
# check_operator_monotone passes when min eig(f(B) - f(A)) >= -this
OPERATOR_MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class WeightFunction:
    """Piecewise-constant weight on [0,1] with values in [0,1].

    ``breakpoints`` has one more entry than ``values``; piece i covers
    [breakpoints[i], breakpoints[i+1]) and the last piece is closed.
    ``jumps`` holds the pairs (b_k, d_k) of the breakpoints where the
    value changes, d_k being the value before b_k minus the value after
    (0 outside [0,1]), and ``kernel_constant`` is sum d_k log1p(b_k^2);
    both are derived once, for ``weighted_kernel_integral``, and take no
    part in equality, hashing or repr. ``_kept_integral`` is the
    ``(t, value)`` pair of the last integral taken at this weight, t
    already folded into (0, 1]; ``weighted_kernel_integral`` is its one
    reader and writer, and it takes no part in equality, hashing or repr
    either.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    jumps: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)
    kernel_constant: float = field(init=False, repr=False, compare=False)
    _kept_integral: tuple[float, float] | None = field(default=None, init=False, repr=False, compare=False)

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
        steps = zip(bp, (0.0, *vals), (*vals, 0.0))
        jumps = tuple((b, before - after) for b, before, after in steps if before != after)
        constant = sum((d * math.log1p(b * b) for b, d in jumps), 0.0)
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "kernel_constant", constant)

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


def weighted_kernel_integral(h: WeightFunction, t: float) -> float:
    """INT_0^1 symmetric_kernel(u, t) h(u) du in closed form.

    Summed by parts over the breakpoints: with G(u) = log1p(u^2) -
    log(u+t) - log1p(u t) the antiderivative of the kernel in u, the
    integral is sum d_k G(b_k) over the jumps (b_k, d_k) of h, that is
    ``h.kernel_constant - sum d_k (log(b_k+t) + log1p(b_k t))``. The
    integrand is invariant under t -> 1/t, so t > 1 is folded to 1/t
    first: the values at t and at 1/t agree to the bit wherever
    1/(1/t) == t.

    The weight keeps the folded t and the value of its last integral, so
    a second call at the same folded t, such as c(y, x) after c(x, y) or
    f(1/t) after f(t), returns the kept float without summing again. The
    pair is written as one tuple after the sum, so it never pairs a t
    with another t's value, and a call that raises keeps nothing. It is
    stored straight into the instance dict, as ``functools.cached_property``
    stores its value: a third of the cost of ``object.__setattr__``.
    """
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(f"argument {t} not positive and finite")
    if t > 1.0:
        t = 1.0 / t
    kept = h._kept_integral
    if kept is not None and kept[0] == t:
        return kept[1]
    total = 0.0
    for b, d in h.jumps:
        total += d * (math.log(b + t) + math.log1p(b * t))
    value = h.kernel_constant - total
    h.__dict__["_kept_integral"] = (t, value)
    return value


def _kernel_integral_at_log(h: WeightFunction, log_t: float) -> float:
    """``weighted_kernel_integral(h, t)`` at t = exp(log_t) below 2^-1024,
    where t itself may round to 0: the same sum with each log(b + t) taken
    as log b + log1p(t / b) and log1p(b t), below 2^-1024, dropped."""
    total = 0.0
    for b, d in h.jumps:
        if b == 0.0:
            total += d * log_t
        else:
            total += d * (math.log(b) + math.log1p(math.exp(log_t - math.log(b))))
    return h.kernel_constant - total


def eval_gamma_family(gamma: float, t: float) -> float:
    """``GammaFamily(gamma)(t)``: t^g ((1+t)/2)^(1-2g), g in [0,1]."""
    return GammaFamily(gamma)(t)


def eval_canonical_f(beta: float, h: WeightFunction, t: float) -> float:
    """``CanonicalMonotone(beta, h)(t)``: the canonical representation at t."""
    return CanonicalMonotone(beta, h)(t)


def closed_form_kernel_integral(t: float) -> float:
    """log(2t/(1+t)^2): the h == 1 kernel integral in closed form."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"argument {t} not positive and finite")
    return math.log(2.0 * t) - 2.0 * math.log1p(t)


def normalize_beta(h: WeightFunction) -> float:
    """Shift making the canonical representation hit f(1) = 1.

    It is minus ``log_value`` at beta = 0 and t = 1, so beta plus that
    same h part is 0.0 and the normalized f(1) is exactly 1.0.
    """
    return -CanonicalMonotone(0.0, h).log_value(1.0)


class MonotoneFunction:
    """A positive operator monotone function on (0, oo).

    Subclasses implement ``_value``; ``__call__`` adds the shared domain
    check, and a subclass with parameters checks them once, when it is
    built. Instances are immutable and safe to share: no call changes
    their parameters, their equality, hash or repr, or any value they
    give. The one state a call writes is the kept last integral of a
    ``WeightFunction`` (see ``weighted_kernel_integral``), a pure cache
    written as one tuple, so a shared weight returns the same bits
    whichever caller evaluated it last.
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
    """Closed-form family t^g ((1+t)/2)^(1-2g), g in [0,1].

    g=0 is the maximal function (1+t)/2, g=1 the minimal 2t/(1+t),
    g=1/2 the square root; all normalized to f(1)=1.
    """

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise DomainError(f"family parameter {self.gamma} outside [0,1]")

    def _value(self, t: float) -> float:
        return t**self.gamma * ((1.0 + t) / 2.0) ** (1.0 - 2.0 * self.gamma)


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
    """Canonical (beta, h) representation, the one owner of its formula.

    ``log_value`` holds log f; f(t) is its exponential, finite exactly
    where log f(t) fits a float (is at most about 709.78), and
    DomainError where the exponential overflows.
    ``ExpOrderFunction`` and ``normalize_beta`` evaluate through
    ``log_value`` too.
    """

    beta: float
    h: WeightFunction

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise DomainError(f"shift beta {self.beta} not finite")

    @classmethod
    def normalized(cls, h: WeightFunction) -> "CanonicalMonotone":
        return cls(beta=normalize_beta(h), h=h)

    def log_value(self, t: float) -> float:
        """log f(t) = beta + (log((1+t)/sqrt(2)) + I(h, t)) for finite t > 0.

        The h part is summed before beta is added, so the shift of
        ``normalize_beta`` cancels it exactly at t = 1.
        """
        h_integral = weighted_kernel_integral(self.h, t)
        return self.beta + (math.log((1.0 + t) / SQRT2) + h_integral)

    def _value(self, t: float) -> float:
        try:
            return math.exp(self.log_value(t))
        except OverflowError:
            raise DomainError(f"f({t}) overflows a float") from None


def eval_kubo_ando(atoms: Sequence[tuple[float, float]], t: float) -> float:
    """``KuboAndo(atoms)(t)``: the mixture sum w_i * t(1+s_i)/(t+s_i)."""
    return KuboAndo(atoms)(t)


@dataclass(frozen=True)
class KuboAndo(MonotoneFunction):
    """Discrete mixture sum w_i * t(1+s_i)/(t+s_i) over atoms (s_i, w_i).

    Locations lie in [0, oo], weights in (0, oo). The point at infinity
    contributes w*t; s=0 contributes w.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((float(s), float(w)) for s, w in self.atoms)
        )
        if not self.atoms:
            raise DomainError("need at least one atom")
        for s, w in self.atoms:
            if not 0.0 <= s <= math.inf:
                raise DomainError(f"atom location {s} outside [0, inf]")
            if not 0.0 < w < math.inf:
                raise DomainError(f"atom weight {w} not positive and finite")

    def _value(self, t: float) -> float:
        total = 0.0
        for s, w in self.atoms:
            if s == math.inf:
                total += w * t
            else:
                total += w * t * (1.0 + s) / (t + s)
        return total


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
    representation and evaluates F(x) = log f(e^x) by the
    ``CanonicalMonotone.log_value`` of the function it wraps, which is
    built once, checks beta, and is what ``to_monotone`` returns. So
    exp(F(log t)) and f(t) come from one formula, and F(x) is finite
    wherever e^x is a positive finite float, even where f(e^x) overflows.
    """

    beta: float
    h: WeightFunction
    _monotone: CanonicalMonotone = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_monotone", CanonicalMonotone(self.beta, self.h))

    def __call__(self, x: float) -> float:
        """F at real x, as log f(e^x).

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
        return self._monotone.log_value(ex)

    def to_monotone(self) -> CanonicalMonotone:
        return self._monotone


def eval_exp_order(F: ExpOrderFunction, x: float) -> float:
    """``F(x)``: log f(e^x) by ``CanonicalMonotone.log_value``, for real x.

    F is the log of the same sum whose exponential is f, so F(x) is
    finite for every x in its domain while f(e^x) is finite exactly where
    that log fits a float, at most about 709.78.
    """
    return F(x)


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
    single trial can be reproduced in isolation; trial k has dimension
    dims[k mod len(dims)]. Every A and B is diagonalized by one
    ``hermitian_eig_each``, and every f(B) - f(A) by another, while f is
    applied eigenvalue by eigenvalue in trial order; a trial's error is
    raised when its trial is reached. The report carries the most negative
    eigenvalue of f(B) - f(A) seen and the first trial where it occurred.
    A non-finite value of f stops the check at that trial with worst NaN,
    which does not pass.
    """
    trials = _trial_count(trials)
    seed = _seed(seed)
    dims = _trial_dims(dims)
    sizes = list(itertools.islice(itertools.cycle(dims), trials))
    pairs = [_ordered_pair(np.random.default_rng([seed, k]), n) for k, n in enumerate(sizes)]
    decs = hermitian_eig_each([m for pair in pairs for m in pair])
    diffs = []
    for trial, pair in enumerate(zip(decs[::2], decs[1::2])):
        dec_a, dec_b = map(unwrap, pair)
        vals_a = [f(w) for w in dec_a.eigenvalues]
        vals_b = [f(w) for w in dec_b.eigenvalues]
        if not np.isfinite(vals_a + vals_b).all():
            # a non-finite value of f fails the check; it is no matrix to diagonalize
            worst, worst_trial = math.nan, trial
            break
        diffs.append(dec_b.apply(vals_b) - dec_a.apply(vals_a))
    else:
        gap = [unwrap(dec).eigenvalues[0] for dec in hermitian_eig_each(diffs)]
        worst_trial = int(np.argmin(gap))
        worst = float(gap[worst_trial])
    return OperatorMonotoneReport(
        worst=worst,
        passed=worst >= -OPERATOR_MONOTONE_TOL,
        trials=trials,
        dims=dims,
        seed=seed,
        tol=OPERATOR_MONOTONE_TOL,
        worst_trial=worst_trial,
        worst_dim=sizes[worst_trial],
    )
