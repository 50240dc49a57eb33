"""Property suites behind the `verify` command.

Each suite runs a fixed list of named properties and reports the worst
residual seen per property next to its tolerance. All randomness is
derived from (seed, suite index, property index, trial counter), so a
report is a pure function of the command line; reruns are byte
identical. Wall time is measured but kept out of the report body for
exactly that reason.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel, apply_channel, monotonicity_trial, random_channel
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
from .errors import DegenerateSample, NotAState
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
from .quadrature import DEFAULT_QUAD, QuadratureConfig, integrate
from .sampling import (
    random_density,
    random_step_weight,
    random_tangent,
    random_unitary,
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
            {
                "suite": s.suite,
                "passed": s.passed,
                "properties": [
                    {
                        "name": p.name,
                        "worst": p.worst,
                        "tolerance": p.tolerance,
                        "passed": p.passed,
                    }
                    for p in s.properties
                ],
            }
            for s in report.suites
        ],
    }


def _rng(seed: int, suite: str, prop: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SUITE_INDEX[suite], prop, *extra])


def _upper(worst: float, tol: float, name: str) -> PropertyResult:
    worst = float(worst)
    return PropertyResult(name=name, worst=worst, tolerance=tol, passed=bool(worst <= tol))


_T_GRID = tuple(float(t) for t in np.geomspace(1e-2, 1e2, 25))


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


def run_monotone_suite(
    trials: int,
    dims: Sequence[int],
    seed: int,
    quad: QuadratureConfig = DEFAULT_QUAD,
    inject_counterexample: bool = False,
) -> SuiteReport:
    props: list[PropertyResult] = []
    nfuncs = max(2, trials // 50)

    # 0: functional equation on canonical representations
    worst = 0.0
    for k in range(nfuncs):
        h = random_step_weight(_rng(seed, "monotone", 0, k))
        f = CanonicalMonotone.normalized(h)
        worst = max(worst, check_functional_equation(f, _T_GRID))
    props.append(_upper(worst, 1e-9, "functional-equation"))

    # 1: sharp is an involution
    worst = 0.0
    for k, f in enumerate(_random_monotones(_rng(seed, "monotone", 1), nfuncs)):
        ff = sharp(sharp(f))
        worst = max(worst, max(abs(ff(t) - f(t)) for t in _T_GRID))
    props.append(_upper(worst, 1e-12, "sharp-involution"))

    # 2: tilde lands on the symmetric fixed-point set
    worst = 0.0
    for f in _random_monotones(_rng(seed, "monotone", 2), nfuncs):
        tf = tilde(f)
        stf = sharp(tf)
        worst = max(worst, max(abs(stf(t) - tf(t)) for t in _T_GRID))
    props.append(_upper(worst, 1e-12, "tilde-fixed-point"))

    # 3: midpoint of the closed-form family is the geometric mean
    rng = _rng(seed, "monotone", 3)
    worst = 0.0
    for _ in range(nfuncs):
        g1, g2 = rng.uniform(0.0, 1.0, 2)
        for t in _T_GRID:
            lhs = eval_gamma_family((g1 + g2) / 2.0, t) ** 2
            rhs = eval_gamma_family(g1, t) * eval_gamma_family(g2, t)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    props.append(_upper(worst, 1e-12, "gamma-midpoint-identity"))

    # 4: the family decreases pointwise in its parameter
    gammas = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for g1, g2 in zip(gammas, gammas[1:]):
        for t in _T_GRID:
            worst = max(worst, eval_gamma_family(g2, t) - eval_gamma_family(g1, t))
    props.append(_upper(worst, 1e-12, "gamma-ordering"))

    # 5: normalized canonical functions sit between the extremal pair
    worst = 0.0
    for k in range(nfuncs):
        h = random_step_weight(_rng(seed, "monotone", 5, k))
        f = CanonicalMonotone.normalized(h)
        for t in _T_GRID:
            v = f(t)
            worst = max(worst, eval_gamma_family(1.0, t) - v)
            worst = max(worst, v - eval_gamma_family(0.0, t))
    props.append(_upper(worst, 1e-9, "extremal-envelope"))

    # 6: constant weights reproduce the closed-form family
    worst = 0.0
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = WeightFunction.constant(g)
        beta = (g - 0.5) * math.log(2.0)
        for t in _T_GRID:
            a = eval_canonical_f(beta, h, t)
            b = eval_gamma_family(g, t)
            worst = max(worst, abs(a - b) / abs(b))
    props.append(_upper(worst, 1e-8, "canonical-vs-closed-form"))

    # 7: matrix-order sampling, optionally with the t^2 counterexample
    candidates = [GammaFamily(0.4)]
    candidates.append(
        CanonicalMonotone.normalized(random_step_weight(_rng(seed, "monotone", 7)))
    )
    if inject_counterexample:
        candidates.append(lambda t: t * t)
    worst = -math.inf
    for f in candidates:
        rep = check_operator_monotone(f, trials=trials, dims=dims, seed=seed)
        worst = max(worst, -rep.worst)
    props.append(_upper(worst, 1e-9, "operator-monotonicity"))

    # 8: quadrature of the raw integrand against both closed forms of the
    # full-weight kernel integral
    h1 = WeightFunction.constant(1.0)
    worst = 0.0
    for t in np.geomspace(1e-2, 1e2, 20):
        t = float(t)
        val, _ = integrate(lambda lam: symmetric_kernel(lam, t), 0.0, 1.0, quad)
        worst = max(
            worst,
            abs(val - closed_form_kernel_integral(t)),
            abs(val - weighted_kernel_integral(h1, t)),
        )
    props.append(_upper(worst, 1e-10, "kernel-integral-closed-form"))

    # 9: additive and multiplicative views agree through t = e^x
    worst = 0.0
    for k in range(nfuncs):
        h = random_step_weight(_rng(seed, "monotone", 9, k))
        beta = normalize_beta(h)
        F = ExpOrderFunction(beta=beta, h=h)
        for t in _T_GRID:
            a = math.exp(eval_exp_order(F, math.log(t)))
            b = eval_canonical_f(beta, h, t)
            worst = max(worst, abs(a - b))
    props.append(_upper(worst, 1e-9, "exp-order-consistency"))

    # 10: additive functional equation F(x) = x + F(-x)
    worst = 0.0
    for k in range(nfuncs):
        rng = _rng(seed, "monotone", 10, k)
        F = ExpOrderFunction(beta=float(rng.normal()), h=random_step_weight(rng))
        for x in np.linspace(-5.0, 5.0, 21):
            worst = max(
                worst,
                abs(eval_exp_order(F, float(x)) - float(x) - eval_exp_order(F, -float(x))),
            )
    props.append(_upper(worst, 1e-9, "exp-order-symmetry"))

    # 11: the arctangent-kernel definite integral equals the angle
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        val, _ = integrate(
            lambda lam: 2.0 * math.sin(theta) / (lam * lam - 2.0 * lam * math.cos(theta) + 1.0),
            -1.0,
            0.0,
            quad,
        )
        worst = max(worst, abs(val - theta))
    props.append(_upper(worst, 1e-10, "angle-integral"))

    # 12: extended weights pair to one across the reciprocal map
    worst = 0.0
    for k in range(nfuncs):
        rng = _rng(seed, "monotone", 12, k)
        ext = extend_weight(random_step_weight(rng))
        for lam in rng.uniform(-0.99, -0.01, 20):
            worst = max(worst, abs(ext(1.0 / lam) + ext(float(lam)) - 1.0))
    props.append(_upper(worst, 1e-12, "weight-extension-duality"))

    return SuiteReport(suite="monotone", properties=tuple(props))


def run_chentsov_suite(trials: int, dims: Sequence[int], seed: int) -> SuiteReport:
    props: list[PropertyResult] = []
    pairs = default_pair_grid(25)
    thin_pairs = default_pair_grid(7)
    nfuncs = max(2, trials // 100)

    # 0: axioms of the closed-form family on the full default grid
    worst = 0.0
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = check_mc_axioms(BridgeMC(g), pairs)
        worst = max(worst, rep.symmetry_max, rep.homogeneity_max, rep.diagonal_max)
    props.append(_upper(worst, 1e-10, "mc-axioms-bridge"))

    # 1: axioms of random canonical kernels (thin grid)
    worst = 0.0
    for k in range(nfuncs):
        h = random_step_weight(_rng(seed, "chentsov", 1, k))
        rep = check_mc_axioms(CanonicalMC.normalized(h), thin_pairs)
        worst = max(worst, rep.symmetry_max, rep.homogeneity_max, rep.diagonal_max)
    props.append(_upper(worst, 1e-8, "mc-axioms-canonical"))

    # 2: the family is log-affine in its parameter
    rng = _rng(seed, "chentsov", 2)
    worst = 0.0
    for _ in range(nfuncs):
        g1, g2 = rng.uniform(0.0, 1.0, 2)
        for s in (0.0, 0.3, 0.5, 1.0):
            mid = s * g1 + (1.0 - s) * g2
            for x, y in thin_pairs:
                lhs = eval_bridge(mid, x, y)
                rhs = eval_bridge(g1, x, y) ** s * eval_bridge(g2, x, y) ** (1.0 - s)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    props.append(_upper(worst, 1e-12, "bridge-log-affinity"))

    # 3: the family increases pointwise in its parameter
    gammas = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for g1, g2 in zip(gammas, gammas[1:]):
        for x, y in thin_pairs:
            worst = max(worst, eval_bridge(g1, x, y) - eval_bridge(g2, x, y))
    props.append(_upper(worst, 1e-12, "bridge-ordering"))

    # 4: mixing weights multiplies kernels (shared scale constant)
    worst = 0.0
    for k in range(nfuncs):
        rng = _rng(seed, "chentsov", 4, k)
        h1 = random_step_weight(rng)
        h2 = random_step_weight(rng)
        s = float(rng.uniform(0.0, 1.0))
        blend = h1.blend(h2, s)
        for x, y in thin_pairs[:: max(1, len(thin_pairs) // 12)]:
            lhs = eval_canonical_c(1.0, blend, x, y)
            rhs = eval_canonical_c(1.0, h1, x, y) ** s * eval_canonical_c(
                1.0, h2, x, y
            ) ** (1.0 - s)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    props.append(_upper(worst, 1e-8, "mixture-law"))

    # 5: pointwise-larger weights give pointwise-larger kernels
    worst = 0.0
    for k in range(nfuncs):
        rng = _rng(seed, "chentsov", 5, k)
        h = random_step_weight(rng)
        lift = rng.uniform(0.0, 1.0, len(h.values))
        g = WeightFunction(
            breakpoints=h.breakpoints,
            values=tuple(
                v + (1.0 - v) * float(u) for v, u in zip(h.values, lift)
            ),
        )
        for x, y in thin_pairs[:: max(1, len(thin_pairs) // 12)]:
            worst = max(
                worst,
                eval_canonical_c(1.0, h, x, y) - eval_canonical_c(1.0, g, x, y),
            )
    props.append(_upper(worst, 1e-10, "weight-monotonicity"))

    # 6: kernels induced by the closed-form family match it
    worst = 0.0
    rng = _rng(seed, "chentsov", 6)
    for g in (0.0, 0.5, 1.0, *(float(v) for v in rng.uniform(0.0, 1.0, nfuncs))):
        c = FromMonotone(GammaFamily(g))
        for x, y in thin_pairs:
            worst = max(worst, abs(c(x, y) - eval_bridge(g, x, y)))
    props.append(_upper(worst, 1e-10, "from-f-roundtrip"))

    # 7: the two normalizations agree through sqrt(2) e^{-beta}
    worst = 0.0
    for k in range(max(nfuncs, 10)):
        h = random_step_weight(_rng(seed, "chentsov", 7, k))
        worst = max(
            worst,
            abs(math.sqrt(2.0) * math.exp(-normalize_beta(h)) - normalize_C0(h)),
        )
    props.append(_upper(worst, 1e-9, "c0-beta-consistency"))

    # 8: normalized kernels stay inside the extremal envelope
    worst = 0.0
    for k in range(nfuncs):
        h = random_step_weight(_rng(seed, "chentsov", 8, k))
        c = CanonicalMC.normalized(h)
        for x, y in thin_pairs:
            v = c(x, y)
            worst = max(worst, (2.0 / (x + y) - v) / v)
            worst = max(worst, (v - (x + y) / (2.0 * x * y)) / v)
    props.append(_upper(worst, 1e-10, "extremal-envelope"))

    # 9: constant weights with auto scale reproduce the closed family
    worst = 0.0
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = WeightFunction.constant(g)
        c0 = normalize_C0(h)
        for x, y in thin_pairs:
            a = eval_canonical_c(c0, h, x, y)
            b = eval_bridge(g, x, y)
            worst = max(worst, abs(a - b) / b)
    props.append(_upper(worst, 1e-8, "canonical-vs-bridge"))

    return SuiteReport(suite="chentsov", properties=tuple(props))


def run_metric_suite(trials: int, dims: Sequence[int], seed: int) -> SuiteReport:
    props: list[PropertyResult] = []
    dims = tuple(dims)
    spec = MetricSpec(c=BridgeMC(0.5))

    def sample_state(rng, n):
        return DensityMatrix.from_matrix(random_density(rng, n))

    # 0: positive on nonzero tangents, zero at zero
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, "metric", 0, k)
        n = dims[k % len(dims)]
        rho = sample_state(rng, n)
        a = random_tangent(rng, n, hermitian=bool(rng.integers(0, 2)))
        q = metric_quadratic(spec, rho, a)
        worst = max(worst, -q if q != 0.0 else math.inf)
        worst = max(worst, abs(metric_quadratic(spec, rho, np.zeros((n, n)))))
    props.append(_upper(worst, 0.0, "positivity"))

    # 1: adjoint-pair symmetry K(A,B) = K(B*,A*)
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, "metric", 1, k)
        n = dims[k % len(dims)]
        rho = sample_state(rng, n)
        a = random_tangent(rng, n, hermitian=False)
        b = random_tangent(rng, n, hermitian=False)
        v1 = metric_form(spec, rho, a, b)
        v2 = metric_form(spec, rho, b.conj().T, a.conj().T)
        worst = max(worst, abs(v1 - v2))
    props.append(_upper(worst, 1e-11, "symmetry-axiom"))

    # 2: Hermitian form: K(A,B) = conj K(B,A)
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, "metric", 2, k)
        n = dims[k % len(dims)]
        rho = sample_state(rng, n)
        a = random_tangent(rng, n, hermitian=False)
        b = random_tangent(rng, n, hermitian=False)
        worst = max(
            worst,
            abs(metric_form(spec, rho, a, b) - np.conj(metric_form(spec, rho, b, a))),
        )
    props.append(_upper(worst, 1e-11, "conjugate-symmetry"))

    # 3: linear in the second slot, conjugate-linear in the first
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, "metric", 3, k)
        n = dims[k % len(dims)]
        rho = sample_state(rng, n)
        a1 = random_tangent(rng, n, hermitian=False)
        a2 = random_tangent(rng, n, hermitian=False)
        b = random_tangent(rng, n, hermitian=False)
        z = complex(rng.normal(), rng.normal())
        lhs = metric_form(spec, rho, z * a1 + a2, b)
        rhs = np.conj(z) * metric_form(spec, rho, a1, b) + metric_form(spec, rho, a2, b)
        worst = max(worst, abs(lhs - rhs))
        lhs = metric_form(spec, rho, b, z * a1 + a2)
        rhs = z * metric_form(spec, rho, b, a1) + metric_form(spec, rho, b, a2)
        worst = max(worst, abs(lhs - rhs))
    props.append(_upper(worst, 1e-10, "sesquilinearity"))

    # 4: unitary conjugation leaves the quadratic form unchanged
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, "metric", 4, k)
        n = dims[k % len(dims)]
        rho = sample_state(rng, n)
        a = random_tangent(rng, n, hermitian=bool(rng.integers(0, 2)))
        u = random_unitary(rng, n)
        q1 = metric_quadratic(spec, rho, a)
        rho_u = DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T)
        q2 = metric_quadratic(spec, rho_u, u @ a @ u.conj().T)
        worst = max(worst, abs(q1 - q2) / max(1.0, abs(q1)))
    props.append(_upper(worst, 1e-9, "unitary-covariance"))

    # 5: diagonal data rotated into a dense basis evaluates identically
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, "metric", 5, k)
        n = dims[k % len(dims)]
        w = rng.uniform(0.1, 1.0, n)
        w = w / w.sum()
        rho_diag = DensityMatrix.from_matrix(np.diag(w).astype(complex))
        a = random_tangent(rng, n, hermitian=True)
        u = random_unitary(rng, n)
        q1 = metric_quadratic(spec, rho_diag, a)
        rho_rot = DensityMatrix.from_matrix(u @ rho_diag.matrix @ u.conj().T)
        q2 = metric_quadratic(spec, rho_rot, u @ a @ u.conj().T)
        worst = max(worst, abs(q1 - q2) / max(1.0, abs(q1)))
    props.append(_upper(worst, 1e-9, "basis-independence"))

    # 6: smoke test only — small state perturbations move K proportionally
    worst = 0.0
    delta = 1e-6
    for k in range(min(trials, 20)):
        rng = _rng(seed, "metric", 6, k)
        n = dims[k % len(dims)]
        rho = sample_state(rng, n)
        a = random_tangent(rng, n, hermitian=True)
        q1 = metric_quadratic(spec, rho, a)
        perturbed = (1.0 - delta) * rho.matrix + delta * np.eye(n) / n
        q2 = metric_quadratic(spec, DensityMatrix.from_matrix(perturbed), a)
        worst = max(worst, abs(q2 - q1) / (delta * max(1.0, abs(q1))))
    props.append(_upper(worst, 1e3, "continuity-smoke"))

    return SuiteReport(suite="metric", properties=tuple(props))


def _contraction_worst(
    spec: MetricSpec,
    seed: int,
    prop: int,
    variant: int,
    target_trials: int,
    dims: Sequence[int],
) -> float:
    """Worst slack over accepted trials; rejected draws are skipped
    deterministically by advancing the attempt counter.

    Raises DegenerateSample when CONTRACTION_DRAWS_PER_TRIAL draws per
    wanted trial yield fewer than ``target_trials`` accepted ones.
    """
    dims = tuple(dims)
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
        rng = _rng(seed, "channels", prop, variant, attempt)
        attempt += 1
        n = dims[attempt % len(dims)]
        m = int(rng.integers(2, 5))
        kmin = math.ceil(n / m)
        k = int(rng.integers(kmin, kmin + 3))
        channel = random_channel(n, m, k, seed=int(rng.integers(0, 2**31)))
        rho = DensityMatrix.from_matrix(random_density(rng, n))
        a = random_tangent(rng, n, hermitian=bool(rng.integers(0, 2)))
        try:
            result = monotonicity_trial(spec, channel, rho, a)
        except NotAState:
            continue
        accepted += 1
        worst = min(worst, result.slack)
    return worst


def run_channels_suite(trials: int, dims: Sequence[int], seed: int) -> SuiteReport:
    props: list[PropertyResult] = []
    dims = tuple(dims)
    spec = MetricSpec(c=BridgeMC(0.5))

    # 0: generated channels preserve trace of arbitrary inputs
    worst = 0.0
    for k in range(min(trials, 50)):
        rng = _rng(seed, "channels", 0, k)
        n = dims[k % len(dims)]
        m = int(rng.integers(2, 5))
        kmin = math.ceil(n / m)
        channel = random_channel(
            n, m, int(rng.integers(kmin, kmin + 3)), seed=int(rng.integers(0, 2**31))
        )
        gram = sum(op.conj().T @ op for op in channel.operators)
        worst = max(worst, float(np.sqrt(np.sum(np.abs(gram - np.eye(n)) ** 2))))
        x = random_tangent(rng, n, hermitian=False)
        worst = max(worst, abs(complex(np.trace(apply_channel(channel, x))) - complex(np.trace(x))))
    props.append(_upper(worst, 1e-10, "trace-preservation"))

    # 1: unitary channels contract with equality
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, "channels", 1, k)
        n = dims[k % len(dims)]
        u = random_unitary(rng, n)
        channel = KrausChannel(operators=(u,))
        rho = DensityMatrix.from_matrix(random_density(rng, n))
        a = random_tangent(rng, n, hermitian=bool(rng.integers(0, 2)))
        result = monotonicity_trial(spec, channel, rho, a)
        worst = max(worst, abs(result.slack))
    props.append(_upper(worst, 1e-9, "unitary-equality"))

    # 2: pinching a diagonal state kills exactly the off-diagonal part
    worst = 0.0
    for k in range(min(trials, 50)):
        rng = _rng(seed, "channels", 2, k)
        n = dims[k % len(dims)]
        projectors = tuple(
            np.diag([1.0 + 0.0j if i == j else 0.0j for i in range(n)]) for j in range(n)
        )
        channel = KrausChannel(operators=projectors)
        w = rng.uniform(0.1, 1.0, n)
        w = w / w.sum()
        rho = DensityMatrix.from_matrix(np.diag(w).astype(complex))
        a = random_tangent(rng, n, hermitian=True)
        np.fill_diagonal(a, 0.0)
        result = monotonicity_trial(spec, channel, rho, a)
        worst = max(worst, abs(result.lhs), -result.slack)
    props.append(_upper(worst, 1e-9, "pinching-contraction"))

    # 3: contraction under the closed-form kernels
    worst = math.inf
    for variant, g in enumerate((0.0, 0.5, 1.0)):
        worst = min(
            worst,
            _contraction_worst(MetricSpec(c=BridgeMC(g)), seed, 3, variant, trials, dims),
        )
    props.append(_upper(-worst, 1e-9, "contraction-bridge"))

    # 4: contraction under random canonical kernels
    worst = math.inf
    for variant in range(2):
        h = random_step_weight(_rng(seed, "channels", 4, variant))
        cspec = MetricSpec(c=CanonicalMC.normalized(h))
        worst = min(
            worst, _contraction_worst(cspec, seed, 4, variant + 10, trials, dims)
        )
    props.append(_upper(-worst, 1e-9, "contraction-canonical"))

    # 5: the harness detects a broken kernel (fixed trial count so the
    # guarantee does not depend on --trials)
    bad = MetricSpec(c=_invalid_kernel)
    worst = _contraction_worst(bad, seed, 5, 0, INVALID_KERNEL_TRIALS, dims)
    props.append(
        PropertyResult(
            name="falsification-power",
            worst=float(worst),
            tolerance=-1e-3,
            passed=bool(worst < -1e-3),
        )
    )

    return SuiteReport(suite="channels", properties=tuple(props))


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
    quad: QuadratureConfig = DEFAULT_QUAD,
    inject_counterexample: bool = False,
) -> VerificationReport:
    """Run one suite or all of them, in fixed order."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    start = time.perf_counter()
    reports = []
    for name in names:
        runner = _SUITE_RUNNERS[name]
        if name == "monotone":
            reports.append(
                runner(trials, dims, seed, quad, inject_counterexample=inject_counterexample)
            )
        else:
            reports.append(runner(trials, dims, seed))
    wall = time.perf_counter() - start
    return VerificationReport(
        suites=tuple(reports),
        seed=seed,
        trials=trials,
        dims=tuple(dims),
        wall_time_s=wall,
    )
