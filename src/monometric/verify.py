"""Property suites behind the `verify` command.

Each suite is a table of properties, filled in source order by the
``_property`` decorator: a name, a tolerance, a direction and a generator
of residuals. One runner, ``_run_suite``, folds every generator to its
worst residual and decides the verdict; the three directions are set out
at ``_UPPER``. A NaN residual makes the worst NaN, and a NaN worst fails
in every direction, so no property passes on a value it could not compute.

Randomness is derived from (seed, suite index, property index, trial
counter), and a property's index is its position in its suite's table.
The one exception is operator-monotonicity: it hands the seed to
``check_operator_monotone``, whose trial k draws from ``[seed, k]``.
Either way a report is a pure function of the command line; reruns are
byte identical. Wall time is measured but kept out of the report body for
exactly that reason.

The contraction properties and unitary-equality draw their trials in
order from these same streams, then build the channels together
(``random_channel_each``, or one Gram-Schmidt stack of the unitaries'
Gaussians), validate the states with one ``from_matrices`` and run the
trials together in ``channels.monotonicity_trial_each``, which maps them
and their tangents as one stack; each of them gives every member bit
for bit its own outcome, so every value is as in a one-by-one loop.
Rejections, errors and the NaN stop are taken in attempt order, and no
attempt is drawn past the point where a one-by-one loop would stop, so
the trials that run are the same, and a channel that cannot be drawn
raises when its attempt is reached. The metric properties likewise draw
every trial's state first, each from its trial's own stream, and validate
them together (``_trial_base_states``); each trial then draws its
tangents and unitaries after its state, as before. Unitary-covariance and
basis-independence orthonormalize their unitaries' Gaussians together
(``_rotation_residuals``) and raise a degenerate one when its trial is
reached.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channels import (
    KrausChannel,
    apply_channel,
    monotonicity_trial,
    monotonicity_trial_each,
    random_channel_each,
)
from .chentsov import (
    BridgeMC,
    CanonicalMC,
    FromMonotone,
    check_mc_axioms,
    default_pair_grid,
    eval_bridge,
    eval_canonical_c,
    normalize_C0,
)
from .errors import DegenerateSample, DomainError, NotAState, _outcome_of, unwrap
from .linalg import _trial_count, _trial_dims
from .metric import DensityMatrix, MetricSpec, metric_form, metric_quadratic
from .monotone import (
    CanonicalMonotone,
    ExpOrderFunction,
    GammaFamily,
    KuboAndo,
    WeightFunction,
    check_functional_equation,
    check_operator_monotone,
    closed_form_kernel_integral,
    eval_canonical_f,
    eval_exp_order,
    eval_gamma_family,
    extend_weight,
    normalize_beta,
    sharp,
    symmetric_kernel,
    tilde,
    weighted_kernel_integral,
)
from .quadrature import integrate
from .sampling import (
    ginibre,
    orthonormal_columns_each,
    random_density,
    random_step_weight,
    random_tangent,
)

SUITE_NAMES = ("monotone", "chentsov", "metric", "channels")
_SUITE_INDEX = {name: i for i, name in enumerate(SUITE_NAMES)}

# the deliberately broken kernel for falsification-power: 1/(x^2 y),
# neither symmetric nor -1-homogeneous
INVALID_KERNEL_TRIALS = 500

# a contraction run gives up after this many draws per wanted trial; about
# 85% of draws are accepted, so the cap only fires on a broken sampler
CONTRACTION_DRAWS_PER_TRIAL = 10


def _invalid_kernel(x: float, y: float) -> float:
    return (x + y) / ((x * y * y + x * x * y) * x)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    worst: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    properties: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)


@dataclass(frozen=True)
class VerificationReport:
    suites: tuple[SuiteReport, ...]
    seed: int
    trials: int
    dims: tuple[int, ...]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


def report_to_dict(report: VerificationReport) -> dict:
    """JSON-ready shape; wall time stays out to keep stdout reproducible."""
    return {
        "seed": report.seed,
        "trials": report.trials,
        "dims": list(report.dims),
        "passed": report.passed,
        "suites": [
            {"suite": s.suite, "passed": s.passed, "properties": [asdict(p) for p in s.properties]}
            for s in report.suites
        ],
    }


# A direction is (start of the max-fold, verdict on the folded worst).
# _UPPER: residuals are errors; the worst must be at most the tolerance.
# _MARGIN: residuals are signed, negative meaning slack to spare.
# _MUST_FAIL: the falsification canary; it passes only when the worst lies
# strictly below its negative tolerance, i.e. the broken kernel was caught.
_UPPER = (0.0, operator.le)
_MARGIN = (-math.inf, operator.le)
_MUST_FAIL = (-math.inf, operator.lt)


class _Run(NamedTuple):
    """Inputs of one residual generator; ``prop`` is its stream index."""

    suite: str
    seed: int
    trials: int
    dims: tuple[int, ...]
    nfuncs: int = 0
    inject_counterexample: bool = False
    prop: int = 0

    def rng(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _SUITE_INDEX[self.suite], self.prop, *extra])

    def draws(self, count: int) -> Iterator[tuple[np.random.Generator, int]]:
        """Trial k's generator and its dimension, dims[k % len(dims)]."""
        for k in range(count):
            yield self.rng(k), self.dims[k % len(self.dims)]


# per suite, in stream-index order: (name, tolerance, direction, residuals)
_SUITES: dict[str, list[tuple]] = {name: [] for name in SUITE_NAMES}


def _property(suite: str, name: str, tolerance: float, direction=_UPPER):
    """Append the decorated residual generator to its suite's table."""

    def register(residuals: Callable[[_Run], Iterable[float]]):
        _SUITES[suite].append((name, tolerance, direction, residuals))
        return residuals

    return register


def _fold(start: float, residuals: Iterable[float]) -> float:
    """The largest residual, or NaN as soon as one residual is NaN."""
    worst = start
    for r in residuals:
        r = float(r)
        if math.isnan(r):
            return r
        worst = max(worst, r)
    return worst


def _run_suite(run: _Run) -> SuiteReport:
    results = []
    for prop, (name, tolerance, (start, verdict), residuals) in enumerate(_SUITES[run.suite]):
        worst = _fold(start, residuals(run._replace(prop=prop)))
        results.append(PropertyResult(name, worst, tolerance, bool(verdict(worst, tolerance))))
    return SuiteReport(run.suite, tuple(results))


def _diagonal_density(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, n)
    w = w / w.sum()
    return np.diag(w).astype(complex)


def _draw_channel(rng: np.random.Generator, n: int) -> tuple[int, int, int, int]:
    """The draw ``(n, m, k, seed)`` of a channel M_n -> M_m for
    ``random_channel_each``, m in [2, 4], with k >= n/m Kraus operators;
    draws m, k and the channel seed in that order, which fixes the stream."""
    m = int(rng.integers(2, 5))
    kmin = math.ceil(n / m)
    k = int(rng.integers(kmin, kmin + 3))
    return n, m, k, int(rng.integers(0, 2**31))


_T_GRID = tuple(float(t) for t in np.geomspace(1e-2, 1e2, 25))
_PAIRS = default_pair_grid(25)
_THIN_PAIRS = default_pair_grid(7)
_SPARSE_PAIRS = _THIN_PAIRS[:: max(1, len(_THIN_PAIRS) // 12)]
_SPEC = MetricSpec(c=BridgeMC(0.5))


def _random_monotones(rng: np.random.Generator, count: int):
    """Mixed pool: closed-form, canonical and discrete-mixture functions."""
    pool = []
    for _ in range(count):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            pool.append(GammaFamily(float(rng.uniform(0.0, 1.0))))
        elif kind == 1:
            pool.append(CanonicalMonotone.normalized(random_step_weight(rng)))
        else:
            natoms = int(rng.integers(1, 4))
            atoms = [
                (float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.1, 1.0)))
                for _ in range(natoms)
            ]
            if rng.integers(0, 2):
                atoms.append((math.inf, float(rng.uniform(0.1, 1.0))))
            pool.append(KuboAndo(atoms=tuple(atoms)))
    return pool


# functional equation on canonical representations
@_property("monotone", "functional-equation", 1e-9)
def _functional_equation(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        f = CanonicalMonotone.normalized(random_step_weight(rng))
        yield check_functional_equation(f, _T_GRID)

# sharp is an involution
@_property("monotone", "sharp-involution", 1e-12)
def _sharp_involution(run: _Run):
    for f in _random_monotones(run.rng(), run.nfuncs):
        ff = sharp(sharp(f))
        yield from (abs(ff(t) - f(t)) for t in _T_GRID)

# tilde lands on the symmetric fixed-point set
@_property("monotone", "tilde-fixed-point", 1e-12)
def _tilde_fixed_point(run: _Run):
    for f in _random_monotones(run.rng(), run.nfuncs):
        tf = tilde(f)
        stf = sharp(tf)
        yield from (abs(stf(t) - tf(t)) for t in _T_GRID)

# midpoint of the closed-form family is the geometric mean
@_property("monotone", "gamma-midpoint-identity", 1e-12)
def _gamma_midpoint_identity(run: _Run):
    rng = run.rng()
    for _ in range(run.nfuncs):
        g1, g2 = rng.uniform(0.0, 1.0, 2)
        for t in _T_GRID:
            lhs = eval_gamma_family((g1 + g2) / 2.0, t) ** 2
            rhs = eval_gamma_family(g1, t) * eval_gamma_family(g2, t)
            yield abs(lhs - rhs) / abs(rhs)

# the family decreases pointwise in its parameter
@_property("monotone", "gamma-ordering", 1e-12)
def _gamma_ordering(run: _Run):
    gammas = np.linspace(0.0, 1.0, 11)
    for g1, g2 in zip(gammas, gammas[1:]):
        for t in _T_GRID:
            yield eval_gamma_family(g2, t) - eval_gamma_family(g1, t)

# normalized canonical functions sit between the extremal pair
@_property("monotone", "extremal-envelope", 1e-9)
def _monotone_extremal_envelope(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        f = CanonicalMonotone.normalized(random_step_weight(rng))
        for t in _T_GRID:
            v = f(t)
            yield eval_gamma_family(1.0, t) - v
            yield v - eval_gamma_family(0.0, t)

# constant weights reproduce the closed-form family
@_property("monotone", "canonical-vs-closed-form", 1e-8)
def _canonical_vs_closed_form(run: _Run):
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = WeightFunction.constant(g)
        beta = (g - 0.5) * math.log(2.0)
        for t in _T_GRID:
            a = eval_canonical_f(beta, h, t)
            b = eval_gamma_family(g, t)
            yield abs(a - b) / abs(b)

# matrix-order sampling, optionally with the t^2 counterexample; a
# residual is minus the most negative eigenvalue of f(B) - f(A)
@_property("monotone", "operator-monotonicity", 1e-9, _MARGIN)
def _operator_monotonicity(run: _Run):
    candidates = [GammaFamily(0.4), CanonicalMonotone.normalized(random_step_weight(run.rng()))]
    if run.inject_counterexample:
        candidates.append(lambda t: t * t)
    for f in candidates:
        rep = check_operator_monotone(f, trials=run.trials, dims=run.dims, seed=run.seed)
        yield -rep.worst

# quadrature of the raw integrand against both closed forms of the
# full-weight kernel integral
@_property("monotone", "kernel-integral-closed-form", 1e-10)
def _kernel_integral_closed_form(run: _Run):
    h1 = WeightFunction.constant(1.0)
    for t in np.geomspace(1e-2, 1e2, 20):
        t = float(t)
        val, _ = integrate(lambda lam: symmetric_kernel(lam, t), 0.0, 1.0)
        yield abs(val - closed_form_kernel_integral(t))
        yield abs(val - weighted_kernel_integral(h1, t))

# additive and multiplicative views agree through t = e^x with f(t)
# rebuilt from quadrature of the raw integrand over the weight's pieces
@_property("monotone", "exp-order-consistency", 1e-9)
def _exp_order_consistency(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        h = random_step_weight(rng)
        beta = normalize_beta(h)
        F = ExpOrderFunction(beta=beta, h=h)
        for t in _T_GRID:
            integral = sum(
                v * integrate(lambda lam: symmetric_kernel(lam, t), lo, hi)[0]
                for lo, hi, v in h.pieces()
            )
            oracle = math.exp(beta) * (1.0 + t) / math.sqrt(2.0) * math.exp(integral)
            yield abs(math.exp(eval_exp_order(F, math.log(t))) - oracle)
            yield abs(eval_canonical_f(beta, h, t) - oracle)

# additive functional equation F(x) = x + F(-x)
@_property("monotone", "exp-order-symmetry", 1e-9)
def _exp_order_symmetry(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        F = ExpOrderFunction(beta=float(rng.normal()), h=random_step_weight(rng))
        for x in np.linspace(-5.0, 5.0, 21):
            x = float(x)
            yield abs(eval_exp_order(F, x) - x - eval_exp_order(F, -x))

# the arctangent-kernel definite integral equals the angle
@_property("monotone", "angle-integral", 1e-10)
def _angle_integral(run: _Run):
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        val, _ = integrate(
            lambda lam: 2.0 * math.sin(theta) / (lam * lam - 2.0 * lam * math.cos(theta) + 1.0),
            -1.0,
            0.0,
        )
        yield abs(val - theta)

# extended weights pair to one across the reciprocal map
@_property("monotone", "weight-extension-duality", 1e-12)
def _weight_extension_duality(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        ext = extend_weight(random_step_weight(rng))
        for lam in rng.uniform(-0.99, -0.01, 20):
            yield abs(ext(1.0 / lam) + ext(float(lam)) - 1.0)


# axioms of the closed-form family on the full default grid
@_property("chentsov", "mc-axioms-bridge", 1e-10)
def _mc_axioms_bridge(run: _Run):
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = check_mc_axioms(BridgeMC(g), _PAIRS)
        yield from (rep.symmetry_max, rep.homogeneity_max, rep.diagonal_max)

# axioms of random canonical kernels (thin grid)
@_property("chentsov", "mc-axioms-canonical", 1e-8)
def _mc_axioms_canonical(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        rep = check_mc_axioms(CanonicalMC.normalized(random_step_weight(rng)), _THIN_PAIRS)
        yield from (rep.symmetry_max, rep.homogeneity_max, rep.diagonal_max)

# the family is log-affine in its parameter
@_property("chentsov", "bridge-log-affinity", 1e-12)
def _bridge_log_affinity(run: _Run):
    rng = run.rng()
    for _ in range(run.nfuncs):
        g1, g2 = rng.uniform(0.0, 1.0, 2)
        for s in (0.0, 0.3, 0.5, 1.0):
            mid = s * g1 + (1.0 - s) * g2
            for x, y in _THIN_PAIRS:
                lhs = eval_bridge(mid, x, y)
                rhs = eval_bridge(g1, x, y) ** s * eval_bridge(g2, x, y) ** (1.0 - s)
                yield abs(lhs - rhs) / abs(rhs)

# the family increases pointwise in its parameter
@_property("chentsov", "bridge-ordering", 1e-12)
def _bridge_ordering(run: _Run):
    gammas = np.linspace(0.0, 1.0, 11)
    for g1, g2 in zip(gammas, gammas[1:]):
        for x, y in _THIN_PAIRS:
            yield eval_bridge(g1, x, y) - eval_bridge(g2, x, y)

# mixing weights multiplies kernels (shared scale constant)
@_property("chentsov", "mixture-law", 1e-8)
def _mixture_law(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        h1 = random_step_weight(rng)
        h2 = random_step_weight(rng)
        s = float(rng.uniform(0.0, 1.0))
        blend = h1.blend(h2, s)
        for x, y in _SPARSE_PAIRS:
            lhs = eval_canonical_c(1.0, blend, x, y)
            rhs = eval_canonical_c(1.0, h1, x, y) ** s * eval_canonical_c(
                1.0, h2, x, y
            ) ** (1.0 - s)
            yield abs(lhs - rhs) / abs(rhs)

# pointwise-larger weights give pointwise-larger kernels
@_property("chentsov", "weight-monotonicity", 1e-10)
def _weight_monotonicity(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        h = random_step_weight(rng)
        lift = rng.uniform(0.0, 1.0, len(h.values))
        g = WeightFunction(
            breakpoints=h.breakpoints,
            values=tuple(v + (1.0 - v) * float(u) for v, u in zip(h.values, lift)),
        )
        for x, y in _SPARSE_PAIRS:
            yield eval_canonical_c(1.0, h, x, y) - eval_canonical_c(1.0, g, x, y)

# kernels induced by the closed-form family match it
@_property("chentsov", "from-f-roundtrip", 1e-10)
def _from_f_roundtrip(run: _Run):
    rng = run.rng()
    for g in (0.0, 0.5, 1.0, *(float(v) for v in rng.uniform(0.0, 1.0, run.nfuncs))):
        c = FromMonotone(GammaFamily(g))
        for x, y in _THIN_PAIRS:
            yield abs(c(x, y) - eval_bridge(g, x, y))

# the two normalizations agree through sqrt(2) e^{-beta}
@_property("chentsov", "c0-beta-consistency", 1e-9)
def _c0_beta_consistency(run: _Run):
    for rng, _ in run.draws(max(run.nfuncs, 10)):
        h = random_step_weight(rng)
        yield abs(math.sqrt(2.0) * math.exp(-normalize_beta(h)) - normalize_C0(h))

# normalized kernels stay inside the extremal envelope
@_property("chentsov", "extremal-envelope", 1e-10)
def _chentsov_extremal_envelope(run: _Run):
    for rng, _ in run.draws(run.nfuncs):
        c = CanonicalMC.normalized(random_step_weight(rng))
        for x, y in _THIN_PAIRS:
            v = c(x, y)
            yield (2.0 / (x + y) - v) / v
            yield (v - (x + y) / (2.0 * x * y)) / v

# constant weights with auto scale reproduce the closed family
@_property("chentsov", "canonical-vs-bridge", 1e-8)
def _canonical_vs_bridge(run: _Run):
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = WeightFunction.constant(g)
        c0 = normalize_C0(h)
        for x, y in _THIN_PAIRS:
            a = eval_canonical_c(c0, h, x, y)
            b = eval_bridge(g, x, y)
            yield abs(a - b) / b


# positive on nonzero tangents, zero at zero
@_property("metric", "positivity", 0.0)
def _positivity(run: _Run):
    for rng, n, rho in _trial_base_states(run, run.trials):
        a = random_tangent(rng, n, hermitian=bool(rng.integers(0, 2)))
        q = metric_quadratic(_SPEC, rho, a)
        yield -q if q != 0.0 else math.inf
        yield abs(metric_quadratic(_SPEC, rho, np.zeros((n, n))))

# adjoint-pair symmetry K(A,B) = K(B*,A*)
@_property("metric", "symmetry-axiom", 1e-11)
def _symmetry_axiom(run: _Run):
    for rng, n, rho in _trial_base_states(run, run.trials):
        a = random_tangent(rng, n, hermitian=False)
        b = random_tangent(rng, n, hermitian=False)
        v1 = metric_form(_SPEC, rho, a, b)
        v2 = metric_form(_SPEC, rho, b.conj().T, a.conj().T)
        yield abs(v1 - v2)

# Hermitian form: K(A,B) = conj K(B,A)
@_property("metric", "conjugate-symmetry", 1e-11)
def _conjugate_symmetry(run: _Run):
    for rng, n, rho in _trial_base_states(run, run.trials):
        a = random_tangent(rng, n, hermitian=False)
        b = random_tangent(rng, n, hermitian=False)
        yield abs(metric_form(_SPEC, rho, a, b) - np.conj(metric_form(_SPEC, rho, b, a)))

# linear in the second slot, conjugate-linear in the first
@_property("metric", "sesquilinearity", 1e-10)
def _sesquilinearity(run: _Run):
    for rng, n, rho in _trial_base_states(run, run.trials):
        a1 = random_tangent(rng, n, hermitian=False)
        a2 = random_tangent(rng, n, hermitian=False)
        b = random_tangent(rng, n, hermitian=False)
        z = complex(rng.normal(), rng.normal())
        lhs = metric_form(_SPEC, rho, z * a1 + a2, b)
        rhs = np.conj(z) * metric_form(_SPEC, rho, a1, b) + metric_form(_SPEC, rho, a2, b)
        yield abs(lhs - rhs)
        lhs = metric_form(_SPEC, rho, b, z * a1 + a2)
        rhs = z * metric_form(_SPEC, rho, b, a1) + metric_form(_SPEC, rho, b, a2)
        yield abs(lhs - rhs)


def _rotation_residual(rho: DensityMatrix, a: np.ndarray, u: np.ndarray) -> float:
    """Relative change of K(A, A) when state and tangent are conjugated by u."""
    q1 = metric_quadratic(_SPEC, rho, a)
    rho_u = DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T)
    q2 = metric_quadratic(_SPEC, rho_u, u @ a @ u.conj().T)
    return abs(q1 - q2) / max(1.0, abs(q1))


def _rotation_residuals(run: _Run, draw, hermitian: Callable[[np.random.Generator], bool]):
    """``_rotation_residual`` per trial of ``run.draws(run.trials)``. Each
    trial draws its state with ``draw``, then its tangent, Hermitian as
    ``hermitian`` decides, then its unitary's Gaussian, all from its own
    generator. The states are validated by one ``from_matrices``, the
    Gaussians orthonormalized by one ``orthonormal_columns_each``, and a
    trial's error is raised when its trial is reached."""
    trials = list(run.draws(run.trials))
    states = DensityMatrix.from_matrices([draw(rng, n) for rng, n in trials])
    tangents = [random_tangent(rng, n, hermitian=hermitian(rng)) for rng, n in trials]
    unitaries = orthonormal_columns_each([ginibre(rng, n, n) for rng, n in trials])
    for state, a, u in zip(states, tangents, unitaries):
        yield _rotation_residual(unwrap(state), a, unwrap(u))


# unitary conjugation leaves the quadratic form unchanged
@_property("metric", "unitary-covariance", 1e-9)
def _unitary_covariance(run: _Run):
    return _rotation_residuals(run, random_density, lambda rng: bool(rng.integers(0, 2)))

# diagonal data rotated into a dense basis evaluates identically
@_property("metric", "basis-independence", 1e-9)
def _basis_independence(run: _Run):
    return _rotation_residuals(run, _diagonal_density, lambda rng: True)

# smoke test only — small state perturbations move K proportionally
@_property("metric", "continuity-smoke", 1e3)
def _continuity_smoke(run: _Run):
    delta = 1e-6
    for rng, n, rho in _trial_base_states(run, min(run.trials, 20)):
        a = random_tangent(rng, n, hermitian=True)
        q1 = metric_quadratic(_SPEC, rho, a)
        perturbed = (1.0 - delta) * rho.matrix + delta * np.eye(n) / n
        q2 = metric_quadratic(_SPEC, DensityMatrix.from_matrix(perturbed), a)
        yield abs(q2 - q1) / (delta * max(1.0, abs(q1)))


def _trial_base_states(
    run: _Run, count: int, draw: Callable[[np.random.Generator, int], np.ndarray] = random_density
) -> Iterator[tuple[np.random.Generator, int, DensityMatrix]]:
    """Per trial of ``run.draws(count)``, in order: its generator, its
    dimension and its state, which ``draw`` makes first from that
    generator, so what the trial draws next comes after it as in a
    trial-by-trial loop. The states are validated together by
    ``DensityMatrix.from_matrices``; a trial's error is raised when its
    trial is reached."""
    trials = list(run.draws(count))
    states = DensityMatrix.from_matrices([draw(rng, n) for rng, n in trials])
    for (rng, n), state in zip(trials, states):
        yield rng, n, unwrap(state)


def _contraction_worst(run: _Run, spec: MetricSpec, variant: int, target_trials: int) -> float:
    """Worst (smallest) slack over accepted trials, NaN if any slack is
    NaN; attempt k draws from ``run.rng(variant, k)``, so rejected draws
    are skipped deterministically by advancing the attempt counter.

    Attempts are drawn in order, in chunks of the trials still wanted, so
    no attempt is drawn past the point where a one-by-one loop would stop.
    Each attempt draws its channel's parameters, its state and its tangent
    from its generator; a chunk's channels come from one
    ``random_channel_each``, its states from one ``from_matrices`` and its
    trials from one ``monotonicity_trial_each``. Errors and rejections are
    taken in attempt order. Raises DegenerateSample when
    CONTRACTION_DRAWS_PER_TRIAL draws per wanted trial yield fewer than
    ``target_trials`` accepted ones.
    """
    worst = math.inf
    accepted = 0
    attempt = 0
    max_attempts = CONTRACTION_DRAWS_PER_TRIAL * target_trials
    while accepted < target_trials:
        if attempt == max_attempts:
            raise DegenerateSample(
                f"{accepted} of {target_trials} contraction trials accepted "
                f"after {max_attempts} draws"
            )
        chunk = range(attempt, min(attempt + target_trials - accepted, max_attempts))
        attempt = chunk.stop
        draws, rhos, tangents = [], [], []
        for k in chunk:
            rng = run.rng(variant, k)
            n = run.dims[(k + 1) % len(run.dims)]
            draws.append(_draw_channel(rng, n))
            rhos.append(random_density(rng, n))
            tangents.append(random_tangent(rng, n, hermitian=bool(rng.integers(0, 2))))
        channels = random_channel_each(draws)
        states = DensityMatrix.from_matrices(rhos)
        for state, outcome in zip(states, monotonicity_trial_each(spec, channels, states, tangents)):
            # a draw's own error, its channel's and then its state's, is its
            # outcome and raised; a NotAState of its image rejects the draw
            if isinstance(outcome, NotAState) and outcome is not state:
                continue
            result = unwrap(outcome)
            if math.isnan(result.slack):
                return math.nan
            accepted += 1
            worst = min(worst, result.slack)
    return worst


# generated channels preserve trace of arbitrary inputs
@_property("channels", "trace-preservation", 1e-10)
def _trace_preservation(run: _Run):
    draws, tangents = [], []
    for rng, n in run.draws(min(run.trials, 50)):
        draws.append(_draw_channel(rng, n))
        tangents.append(random_tangent(rng, n, hermitian=False))
    for outcome, x in zip(random_channel_each(draws), tangents):
        channel = unwrap(outcome)
        gram = sum(op.conj().T @ op for op in channel.operators)
        yield float(np.sqrt(np.sum(np.abs(gram - np.eye(channel.in_dim)) ** 2)))
        yield abs(complex(np.trace(apply_channel(channel, x))) - complex(np.trace(x)))

# unitary channels contract with equality
@_property("channels", "unitary-equality", 1e-9)
def _unitary_equality(run: _Run):
    gaussians, rhos, tangents = [], [], []
    for rng, n in run.draws(run.trials):
        gaussians.append(ginibre(rng, n, n))
        rhos.append(random_density(rng, n))
        tangents.append(random_tangent(rng, n, hermitian=bool(rng.integers(0, 2))))
    unitaries = orthonormal_columns_each(gaussians)
    channels = [_outcome_of(lambda u: KrausChannel(operators=(u,)), u) for u in unitaries]
    for outcome in monotonicity_trial_each(_SPEC, channels, DensityMatrix.from_matrices(rhos), tangents):
        yield abs(unwrap(outcome).slack)

# pinching a diagonal state kills exactly the off-diagonal part
@_property("channels", "pinching-contraction", 1e-9)
def _pinching_contraction(run: _Run):
    for rng, n in run.draws(min(run.trials, 50)):
        projectors = tuple(np.diag(e) for e in np.eye(n, dtype=complex))
        channel = KrausChannel(operators=projectors)
        rho = DensityMatrix.from_matrix(_diagonal_density(rng, n))
        a = random_tangent(rng, n, hermitian=True)
        np.fill_diagonal(a, 0.0)
        result = monotonicity_trial(_SPEC, channel, rho, a)
        yield abs(result.lhs)
        yield -result.slack

# contraction under the closed-form kernels; a residual is minus the
# smallest slack of one kernel
@_property("channels", "contraction-bridge", 1e-9, _MARGIN)
def _contraction_bridge(run: _Run):
    for variant, g in enumerate((0.0, 0.5, 1.0)):
        spec = MetricSpec(c=BridgeMC(g))
        yield -_contraction_worst(run, spec, variant, run.trials)

# contraction under random canonical kernels
@_property("channels", "contraction-canonical", 1e-9, _MARGIN)
def _contraction_canonical(run: _Run):
    for variant in range(2):
        spec = MetricSpec(c=CanonicalMC.normalized(random_step_weight(run.rng(variant))))
        yield -_contraction_worst(run, spec, variant + 10, run.trials)

# the harness detects a broken kernel (fixed trial count so the guarantee
# does not depend on --trials); the residual is the smallest slack
@_property("channels", "falsification-power", -1e-3, _MUST_FAIL)
def _falsification_power(run: _Run):
    bad = MetricSpec(c=_invalid_kernel)
    yield _contraction_worst(run, bad, 0, INVALID_KERNEL_TRIALS)


def run_monotone_suite(
    trials: int,
    dims: Sequence[int],
    seed: int,
    inject_counterexample: bool = False,
) -> SuiteReport:
    nfuncs = max(2, trials // 50)
    return _run_suite(_Run("monotone", seed, trials, tuple(dims), nfuncs, inject_counterexample))


def run_chentsov_suite(trials: int, dims: Sequence[int], seed: int) -> SuiteReport:
    return _run_suite(_Run("chentsov", seed, trials, tuple(dims), max(2, trials // 100)))


def run_metric_suite(trials: int, dims: Sequence[int], seed: int) -> SuiteReport:
    return _run_suite(_Run("metric", seed, trials, tuple(dims)))


def run_channels_suite(trials: int, dims: Sequence[int], seed: int) -> SuiteReport:
    return _run_suite(_Run("channels", seed, trials, tuple(dims)))


_SUITE_RUNNERS = {
    "monotone": run_monotone_suite,
    "chentsov": run_chentsov_suite,
    "metric": run_metric_suite,
    "channels": run_channels_suite,
}


def run_verification(
    suite: str,
    trials: int,
    seed: int,
    dims: Sequence[int] = (2, 3),
    inject_counterexample: bool = False,
) -> VerificationReport:
    """Run one suite or all of them, in fixed order."""
    if suite not in (*SUITE_NAMES, "all"):
        raise DomainError(f"unknown suite {suite!r}")
    trials = _trial_count(trials)
    dims = _trial_dims(dims)
    names = SUITE_NAMES if suite == "all" else (suite,)
    start = time.perf_counter()
    reports = []
    for name in names:
        runner = _SUITE_RUNNERS[name]
        if name == "monotone":
            reports.append(runner(trials, dims, seed, inject_counterexample=inject_counterexample))
        else:
            reports.append(runner(trials, dims, seed))
    wall = time.perf_counter() - start
    return VerificationReport(
        suites=tuple(reports),
        seed=seed,
        trials=trials,
        dims=dims,
        wall_time_s=wall,
    )
