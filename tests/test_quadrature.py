"""Adaptive Gauss-Kronrod integrator against closed forms and scipy, and
as the oracle of the closed-form canonical kernel integrals."""

import math

import numpy as np
import pytest
import scipy.integrate

from monometric import (
    DEFAULT_QUAD,
    CanonicalMC,
    CanonicalMonotone,
    ExpOrderFunction,
    QuadratureConfig,
    QuadratureFailure,
    WeightFunction,
    eval_canonical_c,
    eval_exp_order,
    integrate,
)
from monometric.chentsov import mc_kernel
from monometric.monotone import symmetric_kernel, weighted_kernel_integral
from monometric.sampling import random_step_weight

TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=400)


def scipy_oracle(fn, a, b):
    val, _ = scipy.integrate.quad(lambda x: float(fn(np.array([x]))[0]), a, b, limit=300)
    return val


class TestAgainstClosedForms:
    def test_polynomial_single_panel(self):
        # Kronrod-15 integrates degree <= 22 exactly; one panel suffices
        val, err = integrate(lambda x: 5 * x**13 - 3 * x**4 + x, 0.0, 2.0)
        exact = 5 * 2.0**14 / 14 - 3 * 2.0**5 / 5 + 2.0
        assert val == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert err < 1e-9

    def test_exponential(self):
        val, _ = integrate(np.exp, 0.0, 3.0)
        assert val == pytest.approx(math.exp(3.0) - 1.0, rel=1e-13, abs=0.0)

    def test_oscillatory_cosine(self):
        val, _ = integrate(lambda x: np.cos(40.0 * x), 0.0, 1.0)
        assert val == pytest.approx(math.sin(40.0) / 40.0, abs=1e-13)

    def test_sqrt_endpoint_derivative_blowup(self):
        val, _ = integrate(np.sqrt, 0.0, 1.0)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_empty_interval(self):
        assert integrate(np.exp, 1.5, 1.5) == (0.0, 0.0)

    def test_orientation(self):
        fwd, _ = integrate(np.exp, 0.0, 1.0)
        rev, _ = integrate(np.exp, 1.0, 0.0)
        assert rev == pytest.approx(-fwd, rel=1e-14, abs=0.0)


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "fn,a,b",
        [
            (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0),
            (lambda x: np.exp(-x) * np.sin(7 * x), 0.0, 4.0),
            (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0),
            (lambda x: x**0.5 * np.log(x + 1e-14), 0.0, 1.0),
        ],
    )
    def test_matches_scipy_quad(self, fn, a, b):
        val, _ = integrate(fn, a, b, TIGHT)
        assert val == pytest.approx(scipy_oracle(fn, a, b), rel=1e-9, abs=1e-11)


class TestErrorReporting:
    def test_error_estimate_covers_true_error(self):
        # the estimate may be loose but must not claim false precision
        for fn, a, b, exact in [
            (np.exp, 0.0, 3.0, math.exp(3.0) - 1.0),
            (lambda x: np.cos(40.0 * x), 0.0, 1.0, math.sin(40.0) / 40.0),
        ]:
            val, err = integrate(fn, a, b)
            assert abs(val - exact) <= err + 1e-13

    def test_failure_when_cap_too_small(self):
        cramped = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=1)
        with pytest.raises(QuadratureFailure):
            integrate(np.sqrt, 0.0, 1.0, cramped)

    def test_same_integrand_converges_with_budget(self):
        val, _ = integrate(np.sqrt, 0.0, 1.0, DEFAULT_QUAD)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_deterministic(self):
        a = integrate(lambda x: np.exp(-x * x), -2.0, 2.0)
        b = integrate(lambda x: np.exp(-x * x), -2.0, 2.0)
        assert a == b


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-12},
            {"rel_tol": 0.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)

    def test_defaults(self):
        assert DEFAULT_QUAD.abs_tol == 1e-12
        assert DEFAULT_QUAD.rel_tol == 1e-10
        assert DEFAULT_QUAD.max_subdivisions == 200


def test_angle_identity():
    # INT_{-1}^{0} 2 sin(theta) / (u^2 - 2 u cos(theta) + 1) du == theta
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        s, c = math.sin(theta), math.cos(theta)
        val, _ = integrate(lambda u: 2.0 * s / (u * u - 2.0 * u * c + 1.0), -1.0, 0.0)
        assert val == pytest.approx(theta, abs=1e-10)


def test_closed_form_kernel_integrals_match_piecewise_quadrature():
    # The closed-form canonical integrals against quadrature of the raw
    # integrands, piece by piece, far into both tails of t.
    oracle = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2000)

    def piecewise(kernel, h):
        return sum(v * integrate(kernel, lo, hi, oracle)[0] for lo, hi, v in h.pieces())

    weights = [random_step_weight(np.random.default_rng([7, k]), 8) for k in range(12)]
    for h in weights:
        for t in np.geomspace(1e-10, 1e10, 21):
            t = float(t)
            expected = piecewise(lambda u: symmetric_kernel(u, t), h)
            assert abs(weighted_kernel_integral(h, t) - expected) <= 1e-13
            # the Chentsov integral, read back from the kernel value
            expected = piecewise(lambda u: mc_kernel(u, t, 1.0), h)
            for x, y in ((t, 1.0), (1.0, t)):
                got = math.log(eval_canonical_c(1.0, h, x, y) * (x + y))
                assert abs(got - expected) <= 1e-13

    extremes = [WeightFunction.constant(0.0), WeightFunction.constant(1.0), *weights[:4]]
    for h in extremes:
        f = CanonicalMonotone.normalized(h)
        c = CanonicalMC.normalized(h)
        F = ExpOrderFunction(beta=f.beta, h=h)
        values = [f(1e300), f(1e-300), c(1e300, 1.0), c(1.0, 1e300), c(1e-300, 1.0)]
        assert all(0.0 < v < math.inf for v in values), values
        assert all(math.isfinite(eval_exp_order(F, x)) for x in (-700.0, 700.0))
