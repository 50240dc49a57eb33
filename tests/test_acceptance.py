"""Acceptance gate for the package.

Each test covers one headline guarantee end to end and prints a single
verdict line to the real stdout (bypassing capture) so a tee'd pytest run
shows one PASS/FAIL per guarantee alongside the usual dots.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from monometric import (
    BridgeMC,
    CanonicalMC,
    CanonicalMonotone,
    DegenerateSample,
    ExpOrderFunction,
    FromMonotone,
    GammaFamily,
    MetricSpec,
    NotAState,
    WeightFunction,
    check_functional_equation,
    check_operator_monotone,
    closed_form_kernel_integral,
    eval_bridge,
    eval_canonical_c,
    eval_canonical_f,
    eval_exp_order,
    eval_gamma_family,
    integrate,
    metric_form,
    metric_quadratic,
    monotonicity_trial,
    normalize_C0,
    normalize_beta,
    random_channel,
    sqrt_function,
    tilde,
)
from monometric.chentsov import default_grid, default_pair_grid
from monometric.monotone import symmetric_kernel, weighted_kernel_integral
from monometric.sampling import (
    random_density,
    random_step_weight,
    random_tangent,
    random_unitary,
)


@pytest.fixture
def report(capfd):
    def emit(idx, name, passed, detail):
        line = f"[{'PASS' if passed else 'FAIL'}] acceptance {idx:02d} {name}: {detail}"
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        assert passed, line
    return emit


def const_weight(v):
    return WeightFunction((0.0, 1.0), (v,))


def step_weight(*key):
    return random_step_weight(np.random.default_rng(list(key)))


def test_01_canonical_matches_gamma_family(report):
    t0 = time.perf_counter()
    ts = np.geomspace(1e-2, 1e2, 50)
    worst = 0.0
    for gamma in np.linspace(0.0, 1.0, 11):
        beta = (gamma - 0.5) * math.log(2.0)
        h = const_weight(float(gamma))
        for t in ts:
            got = eval_canonical_f(beta, h, float(t))
            want = eval_gamma_family(float(gamma), float(t))
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(1, "canonical-f-closed-form", ok, f"max rel err {worst:.3e}, {elapsed:.2f}s")


def test_02_kernel_integral_oracle(report):
    worst = 0.0
    for t in np.geomspace(1e-2, 1e2, 20):
        t = float(t)
        want = closed_form_kernel_integral(t)
        quad, _ = integrate(lambda lam: symmetric_kernel(lam, t), 0.0, 1.0)
        got = weighted_kernel_integral(const_weight(1.0), t)
        worst = max(worst, abs(got - want), abs(quad - want))
    report(2, "full-weight-kernel-integral", worst <= 1e-10, f"max abs err {worst:.3e}")


def test_03_canonical_c_matches_bridge(report):
    pairs = default_pair_grid(25)
    worst = 0.0
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = const_weight(gamma)
        c0 = normalize_C0(h)
        for x, y in pairs:
            got = eval_canonical_c(c0, h, x, y)
            want = eval_bridge(gamma, x, y)
            worst = max(worst, abs(got - want) / abs(want))
    report(3, "canonical-c-bridge-agreement", worst <= 1e-8, f"max rel err {worst:.3e}")


def test_04_scale_constant_consistency(report):
    worst = 0.0
    for k in range(10):
        h = step_weight(4242, k)
        lhs = math.sqrt(2.0) * math.exp(-normalize_beta(h))
        worst = max(worst, abs(lhs - normalize_C0(h)))
    report(4, "scale-constant-identity", worst <= 1e-9, f"max abs err {worst:.3e}")


def test_05_functional_equation(report):
    grid = default_grid()
    fs = [GammaFamily(g) for g in np.linspace(0.0, 1.0, 11)]
    fs += [sqrt_function(), tilde(GammaFamily(0.7))]
    for k in range(5):
        canon = CanonicalMonotone.normalized(step_weight(515, k))
        fs += [canon, tilde(canon)]
    worst = max(check_functional_equation(f, grid) for f in fs)
    report(5, "functional-equation", worst <= 1e-9, f"max |f(t) - t f(1/t)| {worst:.3e}")


def test_06_operator_monotonicity(report):
    t0 = time.perf_counter()
    fs = [GammaFamily(g) for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
    fs += [CanonicalMonotone.normalized(step_weight(606, k)) for k in range(5)]
    worst = math.inf
    all_passed = True
    for k, f in enumerate(fs):
        rep = check_operator_monotone(f, trials=1000, dims=(2, 3, 4, 5), seed=610 + k)
        worst = min(worst, rep.worst)
        all_passed = all_passed and rep.passed
    square = check_operator_monotone(lambda t: t * t, trials=1000, dims=(2, 3, 4, 5), seed=666)
    elapsed = time.perf_counter() - t0
    ok = all_passed and worst >= -1e-9 and not square.passed and elapsed < 60.0
    report(
        6,
        "operator-monotonicity",
        ok,
        f"10 functions x 1000 pairs, worst eig {worst:.3e}, "
        f"square refuted ({square.worst:.3e}), {elapsed:.2f}s",
    )


def test_07_channel_contraction(report):
    t0 = time.perf_counter()
    metrics = [BridgeMC(0.0), BridgeMC(0.5), BridgeMC(1.0)]
    metrics += [CanonicalMC.normalized(step_weight(707, k)) for k in range(2)]
    worst_slack = math.inf
    worst_unitary = 0.0
    for m_idx, c in enumerate(metrics):
        spec = MetricSpec(c=c)
        rng = np.random.default_rng([7100, m_idx])
        accepted = 0
        draws = 0
        while accepted < 500:
            n = 2 + draws % 2
            m = n + (draws // 2) % 2
            k = 1 + draws % 3
            if m > n * k:  # output rank capped at n*k, state would be singular
                k += 1
            channel = random_channel(n, m, k, seed=7200 + 13 * m_idx + draws)
            draws += 1
            assert draws < 2000, "sampler rejected too many contraction trials"
            try:
                trial = monotonicity_trial(
                    spec, channel, random_density(rng, n), random_tangent(rng, n, hermitian=True)
                )
            except (DegenerateSample, NotAState):
                continue
            worst_slack = min(worst_slack, trial.slack)
            accepted += 1
        for j in range(60):
            n = 2 + j % 2
            channel = random_channel(n, n, 1, seed=7900 + 7 * m_idx + j)
            trial = monotonicity_trial(
                spec, channel, random_density(rng, n), random_tangent(rng, n, hermitian=True)
            )
            worst_unitary = max(worst_unitary, abs(trial.slack))
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-9 and worst_unitary <= 1e-9 and elapsed < 120.0
    report(
        7,
        "channel-contraction",
        ok,
        f"5 metrics x 500 trials, worst slack {worst_slack:.3e}, "
        f"unitary |slack| {worst_unitary:.3e}, {elapsed:.2f}s",
    )


def test_08_metric_axioms(report):
    metrics = [BridgeMC(0.0), BridgeMC(0.5), BridgeMC(1.0), CanonicalMC.normalized(step_weight(808))]
    worst_sym = 0.0
    worst_cov = 0.0
    positive = True
    zero_exact = True
    for m_idx, c in enumerate(metrics):
        spec = MetricSpec(c=c)
        rng = np.random.default_rng([8100, m_idx])
        for i in range(50):
            n = 2 + i % 3
            rho = random_density(rng, n)
            a = random_tangent(rng, n, hermitian=bool(i % 2))
            positive = positive and metric_quadratic(spec, rho, a) > 0.0
            zero_exact = zero_exact and metric_quadratic(spec, rho, np.zeros((n, n))) == 0.0
        for i in range(200):
            n = 2 + i % 3
            rho = random_density(rng, n)
            a = random_tangent(rng, n, hermitian=False)
            b = random_tangent(rng, n, hermitian=False)
            lhs = metric_form(spec, rho, a, b)
            rhs = metric_form(spec, rho, b.conj().T, a.conj().T)
            worst_sym = max(worst_sym, abs(lhs - rhs))
        for i in range(30):
            n = 2 + i % 3
            rho = random_density(rng, n)
            a = random_tangent(rng, n, hermitian=False)
            b = random_tangent(rng, n, hermitian=False)
            u = random_unitary(rng, n)
            plain = metric_form(spec, rho, a, b)
            rotated = metric_form(spec, u @ rho @ u.conj().T, u @ a @ u.conj().T, u @ b @ u.conj().T)
            worst_cov = max(worst_cov, abs(rotated - plain) / abs(plain))
    ok = positive and zero_exact and worst_sym <= 1e-11 and worst_cov <= 1e-9
    report(
        8,
        "metric-axioms",
        ok,
        f"positivity {'ok' if positive and zero_exact else 'BROKEN'}, "
        f"adjoint symmetry {worst_sym:.3e}, unitary covariance {worst_cov:.3e}",
    )


def test_09_ordering_and_envelope(report):
    pairs = default_pair_grid(25)
    gammas = np.linspace(0.0, 1.0, 11)
    ordered = True
    for lo, hi in zip(gammas, gammas[1:]):
        for x, y in pairs:
            if eval_bridge(float(lo), x, y) > eval_bridge(float(hi), x, y) * (1 + 1e-12):
                ordered = False

    worst_affine = 0.0
    for g, d in ((0.0, 1.0), (0.25, 0.75), (0.2, 0.9)):
        for s in (0.0, 0.3, 0.5, 1.0):
            mixed = s * g + (1 - s) * d
            for x, y in pairs:
                want = eval_bridge(g, x, y) ** s * eval_bridge(d, x, y) ** (1 - s)
                got = eval_bridge(mixed, x, y)
                worst_affine = max(worst_affine, abs(got - want) / abs(want))

    cs = [BridgeMC(g) for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
    cs += [CanonicalMC.normalized(step_weight(909, k)) for k in range(3)]
    cs += [FromMonotone(sqrt_function()), FromMonotone(tilde(GammaFamily(0.8)))]
    inside = True
    for c in cs:
        for x, y in pairs:
            v = c(x, y)
            lower = 2.0 / (x + y)
            upper = (x + y) / (2.0 * x * y)
            if v < lower * (1 - 1e-9) or v > upper * (1 + 1e-9):
                inside = False
    ok = ordered and worst_affine <= 1e-12 and inside
    report(
        9,
        "bridge-ordering-and-envelope",
        ok,
        f"ordering {'ok' if ordered else 'BROKEN'}, log-affinity {worst_affine:.3e}, "
        f"envelope {'ok' if inside else 'BROKEN'}",
    )


def test_10_exp_order_consistency(report):
    weights = [(float((g - 0.5) * math.log(2.0)), const_weight(float(g))) for g in (0.0, 0.5, 1.0)]
    for k in range(2):
        h = step_weight(1010, k)
        weights.append((normalize_beta(h), h))

    worst_conj = 0.0
    worst_sym = 0.0
    for beta, h in weights:
        F = ExpOrderFunction(beta, h)
        for t in default_grid():
            got = math.exp(eval_exp_order(F, math.log(t)))
            worst_conj = max(worst_conj, abs(got - eval_canonical_f(beta, h, t)))
        for x in np.linspace(-5.0, 5.0, 41):
            residual = eval_exp_order(F, float(x)) - float(x) - eval_exp_order(F, float(-x))
            worst_sym = max(worst_sym, abs(residual))

    worst_angle = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        value, _ = integrate(
            lambda lam: 2.0 * math.sin(theta) / (lam * lam - 2.0 * lam * math.cos(theta) + 1.0),
            -1.0,
            0.0,
        )
        worst_angle = max(worst_angle, abs(value - theta))

    ok = worst_conj <= 1e-9 and worst_sym <= 1e-9 and worst_angle <= 1e-10
    report(
        10,
        "exp-order-class",
        ok,
        f"conjugation {worst_conj:.3e}, translation symmetry {worst_sym:.3e}, "
        f"angle integral {worst_angle:.3e}",
    )


def test_11_cli_determinism(report):
    cmd = [
        sys.executable, "-m", "monometric.cli",
        "verify", "--suite", "all", "--trials", "200", "--seed", "42",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    codes_ok = first.returncode == 0 and second.returncode == 0
    bytes_ok = first.stdout == second.stdout and len(first.stdout) > 0
    parsed = json.loads(first.stdout) if bytes_ok else {}
    shape_ok = bool(parsed.get("suites"))
    ok = codes_ok and bytes_ok and shape_ok
    report(
        11,
        "cli-verify-determinism",
        ok,
        f"exit codes ({first.returncode}, {second.returncode}), "
        f"stdout identical across runs: {bytes_ok}, {len(first.stdout)} bytes",
    )
