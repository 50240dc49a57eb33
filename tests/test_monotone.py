"""Operator monotone functions: closed forms, canonical representation,
transforms, the exponential-order class, and monotonicity sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monometric.monotone
from monometric import (
    CanonicalMonotone,
    ConstantOne,
    DomainError,
    ExpOrderFunction,
    GammaFamily,
    Identity,
    KuboAndo,
    NoConvergence,
    WeightFunction,
    check_functional_equation,
    check_operator_monotone,
    closed_form_kernel_integral,
    eval_canonical_f,
    eval_exp_order,
    eval_gamma_family,
    eval_kubo_ando,
    extend_weight,
    maximal_function,
    minimal_function,
    normalize_beta,
    sharp,
    sqrt_function,
    tilde,
    to_monotone,
)
from monometric.linalg import hermitian_eig, min_eigenvalue
from monometric.io import weight_from_json, weight_to_json
from monometric.monotone import _ordered_pair, symmetric_kernel, weighted_kernel_integral
from monometric.quadrature import integrate
from monometric.sampling import random_step_weight

T_GRID = [float(t) for t in np.geomspace(1e-2, 1e2, 25)]
LOG2 = math.log(2.0)

gammas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive_t = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False)


def const_weight(v):
    return WeightFunction(breakpoints=(0.0, 1.0), values=(v,))


def step_weight(seed):
    return random_step_weight(np.random.default_rng(seed))


def quadrature_f(beta, h, t):
    """f(t) rebuilt from adaptive quadrature of the raw integrand over h's
    pieces: independent of the closed-form sum that f and F share."""
    integral = sum(
        v * integrate(lambda lam: symmetric_kernel(lam, t), lo, hi)[0] for lo, hi, v in h.pieces()
    )
    return math.exp(beta) * (1.0 + t) / math.sqrt(2.0) * math.exp(integral)


class TestGammaFamily:
    def test_sqrt_member(self):
        assert eval_gamma_family(0.5, 4.0) == pytest.approx(2.0)

    def test_max_member(self):
        assert eval_gamma_family(0.0, 3.0) == pytest.approx(2.0)

    @given(gammas)
    def test_normalized_at_one(self, g):
        assert eval_gamma_family(g, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_gamma_family(0.5, 0.0)
        with pytest.raises(DomainError):
            eval_gamma_family(0.5, -1.0)
        with pytest.raises(DomainError):
            eval_gamma_family(1.2, 1.0)

    @given(gammas, gammas, positive_t)
    def test_midpoint_identity(self, g, d, t):
        # f_{(g+d)/2}^2 = f_g * f_d pointwise
        mid = eval_gamma_family(0.5 * (g + d), t)
        assert mid * mid == pytest.approx(
            eval_gamma_family(g, t) * eval_gamma_family(d, t), rel=1e-12, abs=0.0
        )

    def test_ordering_in_gamma(self):
        for t in T_GRID:
            values = [eval_gamma_family(g, t) for g in np.linspace(0, 1, 11)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(gammas, positive_t)
    def test_positive_and_between_extremes(self, g, t):
        v = eval_gamma_family(g, t)
        assert v > 0.0
        assert 2 * t / (1 + t) - 1e-12 <= v <= (1 + t) / 2 + 1e-12


class TestCanonicalRepresentation:
    def test_constant_weight_reproduces_gamma_family(self):
        for g in (0.0, 0.3, 0.5, 0.8, 1.0):
            beta = (g - 0.5) * LOG2
            h = const_weight(g)
            for t in (0.01, 0.5, 1.0, 7.0, 100.0):
                assert eval_canonical_f(beta, h, t) == pytest.approx(
                    eval_gamma_family(g, t), rel=1e-8, abs=0.0
                )

    def test_zero_weight_gives_max_function(self):
        h = const_weight(0.0)
        for t in (0.2, 1.0, 5.0):
            assert eval_canonical_f(-0.5 * LOG2, h, t) == pytest.approx((1 + t) / 2, rel=1e-12, abs=0.0)

    def test_normalized_value_at_one(self):
        for seed in range(5):
            h = step_weight(seed)
            f = CanonicalMonotone.normalized(h)
            assert f(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_normalized_value_at_one_is_exact(self):
        # the shift is minus the h part of log f(1), summed the same way;
        # log f(1) is checked too, as exp rounds a log below 1.1e-16 to 1
        rng = np.random.default_rng(11)
        for _ in range(300):
            h = random_step_weight(rng)
            f = CanonicalMonotone.normalized(h)
            assert f(1.0) == 1.0
            assert ExpOrderFunction(f.beta, h)(0.0) == 0.0

    def test_finite_wherever_log_f_fits_a_float(self):
        # e^710 overflows a float, f(1e-10) = e^710 sqrt(2) t/(1+t) does not
        t = 1e-10
        log_f = 710.0 + 0.5 * LOG2 + math.log(t) - math.log1p(t)
        got = CanonicalMonotone(710.0, const_weight(1.0))(t)
        assert got == pytest.approx(math.exp(log_f), rel=1e-12, abs=0.0)

    def test_overflowing_value_raises_while_its_log_stays_finite(self):
        # log f(1e10) = 709 + log((1 + 1e10)/sqrt(2)) is past log of the largest float
        with pytest.raises(DomainError):
            CanonicalMonotone(709.0, const_weight(0.0))(1e10)
        F = ExpOrderFunction(709.0, const_weight(0.0))
        assert F(math.log(1e10)) == pytest.approx(709.0 + math.log1p(1e10) - 0.5 * LOG2, rel=1e-14, abs=0.0)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(DomainError):
            eval_canonical_f(0.0, const_weight(0.5), 0.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_argument(self, t):
        calls = (
            GammaFamily(0.5),
            CanonicalMonotone.normalized(step_weight(4)),
            lambda t: eval_gamma_family(0.5, t),
            lambda t: eval_canonical_f(0.0, const_weight(0.5), t),
            closed_form_kernel_integral,
            lambda t: eval_kubo_ando([(1.0, 1.0)], t),
            lambda t: check_functional_equation(GammaFamily(0.5), [t]),
        )
        for call in calls:
            with pytest.raises(DomainError):
                call(t)

    def test_extreme_arguments_follow_functional_equation(self):
        # far outside [1e-8, 1e8] evaluation reroutes through f(t) = t f(1/t)
        f = CanonicalMonotone.normalized(step_weight(3))
        for t in (1e-12, 1e12):
            assert f(t) == pytest.approx(t * f(1.0 / t), rel=1e-9, abs=0.0)

    def test_beta_for_constant_weight(self):
        for g in (0.0, 0.25, 1.0):
            assert normalize_beta(const_weight(g)) == pytest.approx((g - 0.5) * LOG2, abs=1e-10)

    def test_beta_for_zero_weight(self):
        assert normalize_beta(const_weight(0.0)) == pytest.approx(-0.5 * LOG2, abs=1e-12)


class TestKernelIntegral:
    def test_closed_form_values(self):
        assert closed_form_kernel_integral(1.0) == pytest.approx(math.log(0.5))
        assert closed_form_kernel_integral(2.0) == pytest.approx(math.log(4.0 / 9.0))

    def test_weighted_integral_matches_log_closed_form(self):
        h1 = const_weight(1.0)
        assert weighted_kernel_integral(h1, 3.0) == pytest.approx(
            math.log(6.0 / 16.0), abs=1e-10
        )
        for t in np.geomspace(1e-2, 1e2, 20):
            got = weighted_kernel_integral(h1, float(t))
            assert got == pytest.approx(closed_form_kernel_integral(float(t)), abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            closed_form_kernel_integral(-2.0)


# the telescoped sum over breakpoints and its t <-> 1/t fold
EXTREME_T = (5e-324, 1e-300, 1e300, 1.7976931348623157e308)
SUM_WEIGHTS = [const_weight(0.0), const_weight(1.0), *(step_weight(seed) for seed in range(6))]


class TestTelescopedKernelIntegral:
    def test_value_at_reciprocal_is_bitwise_equal(self):
        ts = [float(t) for t in np.geomspace(1e-300, 1e300, 241)] + [0.3, 1.0, 7.0]
        ts += [float(t) for t in np.random.default_rng(11).uniform(0.5, 2.0, 40)]
        checked = 0
        for t in ts:
            if 1.0 / (1.0 / t) != t:
                continue
            checked += 1
            for h in SUM_WEIGHTS:
                assert weighted_kernel_integral(h, t) == weighted_kernel_integral(h, 1.0 / t), (h, t)
        assert checked > 200

    def test_splitting_a_piece_leaves_the_integral_bitwise(self):
        whole = WeightFunction(breakpoints=(0.0, 0.3, 1.0), values=(0.2, 0.7))
        split = WeightFunction(breakpoints=(0.0, 0.3, 0.6, 1.0), values=(0.2, 0.7, 0.7))
        assert split.jumps == whole.jumps
        for t in (*EXTREME_T, *T_GRID):
            assert weighted_kernel_integral(split, t) == weighted_kernel_integral(whole, t)

    def test_zero_pieces_at_either_end(self):
        h = WeightFunction(breakpoints=(0.0, 0.2, 0.8, 1.0), values=(0.0, 0.6, 0.0))
        assert h.jumps == ((0.2, -0.6), (0.8, 0.6))
        for t in T_GRID:
            expected = 0.6 * integrate(lambda u: symmetric_kernel(u, t), 0.2, 0.8)[0]
            assert weighted_kernel_integral(h, t) == pytest.approx(expected, abs=1e-10)
        for t in EXTREME_T:
            assert math.isfinite(weighted_kernel_integral(h, t))

    def test_finite_and_nonpositive_at_extreme_arguments(self):
        for h in SUM_WEIGHTS:
            for t in EXTREME_T:
                value = weighted_kernel_integral(h, t)
                assert math.isfinite(value) and value <= 0.0, (h, t)

    def test_derived_fields_leave_equality_hash_repr_and_json_alone(self):
        h = WeightFunction(breakpoints=(0.0, 0.4, 1.0), values=(0.2, 0.9))
        twin = WeightFunction(breakpoints=[0, 0.4, 1], values=[0.2, 0.9])
        assert h == twin and hash(h) == hash(twin)
        assert hash(h) == hash((h.breakpoints, h.values))
        assert h != WeightFunction(breakpoints=(0.0, 0.4, 1.0), values=(0.2, 0.8))
        assert repr(h) == "WeightFunction(breakpoints=(0.0, 0.4, 1.0), values=(0.2, 0.9))"
        assert weight_to_json(h) == {"breakpoints": [0.0, 0.4, 1.0], "values": [0.2, 0.9]}
        back = weight_from_json(weight_to_json(h))
        assert back == h and back.jumps == h.jumps
        assert back.kernel_constant == h.kernel_constant


class TestSharpTransform:
    def test_max_is_fixed_point(self):
        fmax = maximal_function()
        fs = sharp(fmax)
        for t in T_GRID:
            assert fs(t) == pytest.approx(fmax(t), rel=1e-14, abs=0.0)

    def test_sharp_of_identity_is_one(self):
        fs = sharp(Identity())
        for t in (0.1, 1.0, 42.0):
            assert fs(t) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    @given(gammas)
    def test_involution_on_gamma_family(self, g):
        f = GammaFamily(g)
        ff = sharp(sharp(f))
        for t in T_GRID:
            assert abs(ff(t) - f(t)) <= 1e-12 * max(1.0, f(t))

    def test_involution_on_canonical(self):
        f = CanonicalMonotone.normalized(step_weight(11))
        ff = sharp(sharp(f))
        for t in (0.05, 0.8, 1.0, 13.0):
            assert abs(ff(t) - f(t)) <= 1e-12 * max(1.0, f(t))


class TestTildeTransform:
    def test_tilde_of_constant_one_is_min(self):
        ft = tilde(ConstantOne())
        fmin = minimal_function()
        for t in T_GRID:
            assert ft(t) == pytest.approx(fmin(t), rel=1e-13, abs=0.0)

    def test_tilde_fixes_symmetric_functions(self):
        fsqrt = sqrt_function()
        ft = tilde(fsqrt)
        for t in T_GRID:
            assert ft(t) == pytest.approx(fsqrt(t), rel=1e-13, abs=0.0)

    @given(gammas)
    def test_tilde_blind_to_sharp(self, g):
        # harmonic mean of (f, f#) cannot distinguish f from f#
        f = GammaFamily(g)
        a, b = tilde(f), tilde(sharp(f))
        for t in (0.02, 0.7, 1.0, 31.0):
            assert abs(a(t) - b(t)) <= 1e-12 * max(1.0, a(t))

    def test_tilde_satisfies_functional_equation(self):
        f = tilde(GammaFamily(0.9))
        assert check_functional_equation(f, T_GRID) <= 1e-12


class TestKuboAndo:
    def test_single_unit_atom(self):
        for t in (0.3, 1.0, 9.0):
            assert eval_kubo_ando([(1.0, 1.0)], t) == pytest.approx(2 * t / (1 + t))

    def test_split_atoms_give_max(self):
        atoms = [(0.0, 0.5), (math.inf, 0.5)]
        for t in (0.3, 1.0, 9.0):
            assert eval_kubo_ando(atoms, t) == pytest.approx((1 + t) / 2)

    def test_atom_at_infinity_is_identity(self):
        assert eval_kubo_ando([(math.inf, 1.0)], 7.3) == pytest.approx(7.3)

    def test_validation(self):
        with pytest.raises(DomainError):
            eval_kubo_ando([(1.0, 1.0)], -1.0)
        with pytest.raises(DomainError):
            KuboAndo(atoms=((1.0, -0.5),))

    def test_wrapper_matches_function(self):
        f = KuboAndo(atoms=((0.5, 0.3), (2.0, 0.7)))
        for t in (0.2, 1.0, 4.0):
            assert f(t) == pytest.approx(eval_kubo_ando(f.atoms, t))


class TestFunctionalEquation:
    def test_gamma_family_satisfies(self):
        grid = [float(t) for t in np.geomspace(0.01, 100.0, 40)]
        for g in np.linspace(0, 1, 11):
            assert check_functional_equation(GammaFamily(float(g)), grid) <= 1e-10

    def test_identity_violates(self):
        # f(2) = 2 while 2 f(1/2) = 1, so the residual at t=2 is exactly 1
        assert check_functional_equation(Identity(), [2.0]) == pytest.approx(1.0)

    def test_nan_function_gives_nan(self):
        assert math.isnan(check_functional_equation(lambda t: math.nan, T_GRID))

    def test_sqrt_residual_vanishes(self):
        assert check_functional_equation(sqrt_function(), [2.0, 4.0, 8.0]) == 0.0

    def test_canonical_representations_satisfy(self):
        for seed in range(4):
            f = CanonicalMonotone.normalized(step_weight(seed))
            assert check_functional_equation(f, T_GRID) <= 1e-9


class TestExpOrderClass:
    def test_half_weight_is_half_x(self):
        F = ExpOrderFunction(beta=0.0, h=const_weight(0.5))
        for x in (-4.0, -1.0, 0.0, 0.3, 5.0):
            assert eval_exp_order(F, x) == pytest.approx(0.5 * x, abs=1e-8)

    def test_translation_symmetry(self):
        F = ExpOrderFunction(beta=0.2, h=step_weight(21))
        for x in np.linspace(-5, 5, 11):
            lhs = eval_exp_order(F, float(x))
            rhs = float(x) + eval_exp_order(F, -float(x))
            assert abs(lhs - rhs) <= 1e-9

    def test_zero_weight_at_origin(self):
        F = ExpOrderFunction(beta=0.0, h=const_weight(0.0))
        assert eval_exp_order(F, 0.0) == pytest.approx(0.5 * LOG2, abs=1e-12)

    def test_exponential_conjugation_matches_canonical(self):
        for seed in (2, 9):
            h = step_weight(seed)
            beta = normalize_beta(h)
            F = ExpOrderFunction(beta=beta, h=h)
            for t in (0.05, 0.4, 1.0, 6.0, 80.0):
                oracle = quadrature_f(beta, h, t)
                assert math.exp(eval_exp_order(F, math.log(t))) == pytest.approx(oracle, rel=1e-9, abs=0.0)
                assert eval_canonical_f(beta, h, t) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_to_monotone_shares_parameters(self):
        F = ExpOrderFunction(beta=0.1, h=step_weight(5))
        f = to_monotone(F)
        assert f.beta == F.beta
        assert f.h == F.h
        for t in (0.3, 1.0, 3.0):
            oracle = quadrature_f(F.beta, F.h, t)
            assert f(t) == pytest.approx(oracle, rel=1e-9, abs=0.0)
            assert math.exp(eval_exp_order(F, math.log(t))) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_guarded_large_arguments(self):
        F = ExpOrderFunction(beta=0.0, h=const_weight(0.5))
        for x in (25.0, -25.0):
            assert eval_exp_order(F, x) == pytest.approx(0.5 * x, abs=1e-8)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        for cls in (ExpOrderFunction, CanonicalMonotone):
            with pytest.raises(DomainError):
                cls(beta=beta, h=const_weight(0.5))


class TestWeightExtension:
    def test_constant_weight_rules(self):
        ext = extend_weight(const_weight(0.3))
        assert ext(-0.5) == pytest.approx(0.3)
        assert ext(-1.0) == pytest.approx(0.3)
        assert ext(-2.0) == pytest.approx(0.7)
        assert ext(-1e9) == pytest.approx(0.7)

    def test_half_is_self_dual(self):
        ext = extend_weight(const_weight(0.5))
        for mu in (-0.1, -0.9, -1.0, -3.0, -500.0):
            assert ext(mu) == 0.5

    def test_reciprocal_duality_is_exact(self):
        ext = extend_weight(step_weight(8))
        for lo, hi, _ in ext.mirror_pieces():
            mid = 0.5 * (lo + hi)
            if mid == 0.0:
                continue
            assert ext(mid) + ext(1.0 / mid) == 1.0

    def test_piece_bookkeeping(self):
        h = WeightFunction(breakpoints=(0.0, 0.4, 1.0), values=(0.2, 0.9))
        ext = extend_weight(h)
        assert ext.mirror_pieces() == [(-1.0, -0.4, 0.9), (-0.4, -0.0, 0.2)]
        far = ext.far_pieces()
        assert far[0][0] == -math.inf
        assert far[0][2] == pytest.approx(0.8)
        assert far[1][2] == pytest.approx(0.1)


class TestWeightFunctionValidation:
    @pytest.mark.parametrize(
        "breakpoints,values",
        [
            ((0.0, 1.0), (1.5,)),
            ((0.0, 1.0), (-0.1,)),
            ((0.0, 0.5), (0.2,)),
            ((0.5, 1.0), (0.2,)),
            ((0.0, 0.6, 0.4, 1.0), (0.1, 0.2, 0.3)),
            ((0.0, 1.0), (0.1, 0.2)),
        ],
    )
    def test_rejects_malformed(self, breakpoints, values):
        with pytest.raises(DomainError):
            WeightFunction(breakpoints=breakpoints, values=values)

    def test_blend_interpolates(self):
        a, b = const_weight(0.0), const_weight(1.0)
        mixed = a.blend(b, 0.25)
        assert mixed(0.5) == pytest.approx(0.75)

    def test_call_picks_piece(self):
        h = WeightFunction(breakpoints=(0.0, 0.4, 1.0), values=(0.2, 0.9))
        assert h(0.1) == 0.2
        assert h(0.8) == 0.9


class TestOperatorMonotonicity:
    def test_gamma_family_passes(self):
        for g in (0.0, 0.5, 1.0):
            report = check_operator_monotone(GammaFamily(g), trials=120, dims=(2, 3, 4, 5), seed=7)
            assert report.passed
            assert report.worst >= -1e-9

    def test_square_is_refuted(self):
        report = check_operator_monotone(lambda t: t * t, trials=50, dims=(2, 3), seed=7)
        assert not report.passed
        assert report.worst < -1e-3

    def test_identity_never_violates(self):
        # f(B) - f(A) = H*H is a Gram matrix, so every slack eigenvalue
        # is nonnegative up to rounding; the sampled minimum stays small
        report = check_operator_monotone(Identity(), trials=60, dims=(2, 4), seed=3)
        assert report.passed
        assert report.worst >= -1e-12

    def test_report_is_deterministic(self):
        a = check_operator_monotone(GammaFamily(0.3), trials=40, dims=(2, 3), seed=99)
        b = check_operator_monotone(GammaFamily(0.3), trials=40, dims=(2, 3), seed=99)
        assert a == b

    def test_canonical_function_passes(self):
        f = CanonicalMonotone.normalized(step_weight(13))
        report = check_operator_monotone(f, trials=40, dims=(2, 3), seed=5)
        assert report.passed

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_value_fails_with_nan_worst(self, bad):
        f = lambda t: bad if t > 1.0 else t  # noqa: E731
        report = check_operator_monotone(f, trials=20, dims=(2, 3), seed=0)
        assert not report.passed
        assert math.isnan(report.worst)
        assert report.worst_dim in (2, 3) and 0 <= report.worst_trial < 20


# arguments every trial-running receiver rejects: check_operator_monotone,
# run_verification
BAD_TRIAL_ARGUMENTS = {
    "no-trials": {"trials": 0},
    "fractional-trials": {"trials": 2.5},
    "no-dims": {"dims": ()},
    "dim-9": {"dims": (2, 9)},
    "fractional-dim": {"dims": (2.7,)},
    "half-dim": {"dims": (2.5,)},
    "string-dim": {"dims": ("2",)},
    "dims-not-a-list": {"dims": 3},
}


@pytest.mark.parametrize("bad", BAD_TRIAL_ARGUMENTS)
def test_check_operator_monotone_rejects_bad_arguments(bad):
    kwargs = {"trials": 3, "dims": (2, 3), **BAD_TRIAL_ARGUMENTS[bad]}
    with pytest.raises(DomainError):
        check_operator_monotone(GammaFamily(0.5), seed=0, **kwargs)


def test_check_operator_monotone_with_fewer_trials_than_dims():
    report = check_operator_monotone(GammaFamily(0.5), trials=2, dims=(2, 3, 4, 5), seed=1)
    assert report.dims == (2, 3, 4, 5) and report.worst_dim in (2, 3)
    worst, worst_trial, worst_dim = per_trial_operator_monotone(GammaFamily(0.5), 2, (2, 3, 4, 5), 1)
    assert (report.worst, report.worst_trial, report.worst_dim) == (worst, worst_trial, worst_dim)


def per_trial_operator_monotone(f, trials, dims, seed):
    """The trial-by-trial loop that the batched check replaces, kept as its
    oracle: (worst, worst_trial, worst_dim)."""
    worst, worst_trial, worst_dim = math.inf, -1, 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        n = dims[trial % len(dims)]
        a, b = _ordered_pair(rng, n)
        dec_a = hermitian_eig(a)
        dec_b = hermitian_eig(b)
        vals_a = [f(w) for w in dec_a.eigenvalues]
        vals_b = [f(w) for w in dec_b.eigenvalues]
        if not np.isfinite(vals_a + vals_b).all():
            return math.nan, trial, n
        fa = (dec_a.eigenvectors * vals_a) @ dec_a.eigenvectors.conj().T
        fb = (dec_b.eigenvectors * vals_b) @ dec_b.eigenvectors.conj().T
        gap = min_eigenvalue(fb - fa)
        if gap < worst:
            worst, worst_trial, worst_dim = gap, trial, n
    return worst, worst_trial, worst_dim


class TestBatchedOperatorMonotonicity:
    @pytest.mark.parametrize(
        "name, f",
        [
            ("gamma", GammaFamily(0.3)),
            ("canonical", CanonicalMonotone.normalized(step_weight(21))),
            ("sqrt", sqrt_function()),
            ("kubo-ando", KuboAndo(atoms=((0.5, 0.4), (math.inf, 0.6)))),
            ("square", lambda t: t * t),
            ("cube", lambda t: t**3),
            # every gap is exactly 0: the first trial of the tie is reported
            ("zero", lambda t: 0.0),
        ],
    )
    @pytest.mark.parametrize("dims", [(2, 3, 4, 5), (3, 2, 3), (2, 2, 3)])
    def test_matches_the_per_trial_loop(self, name, f, dims):
        report = check_operator_monotone(f, trials=60, dims=dims, seed=17)
        worst, worst_trial, worst_dim = per_trial_operator_monotone(f, 60, dims, 17)
        assert (report.worst_trial, report.worst_dim) == (worst_trial, worst_dim), name
        assert report.worst == pytest.approx(worst, rel=1e-12, abs=1e-13), name

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_value_stops_at_the_same_trial(self, bad):
        seen = []

        def f(t):
            seen.append(t)
            return bad if t > 30.0 else math.sqrt(t)

        report = check_operator_monotone(f, trials=60, dims=(2, 3, 4), seed=4)
        batched_calls = len(seen)
        seen.clear()
        worst, worst_trial, worst_dim = per_trial_operator_monotone(f, 60, (2, 3, 4), 4)
        assert math.isnan(report.worst) and math.isnan(worst)
        assert (report.worst_trial, report.worst_dim) == (worst_trial, worst_dim)
        assert 0 < worst_trial < 59
        # f sees the same eigenvalues in the same order, up to rounding
        assert batched_calls == len(seen)

    def test_a_trial_error_is_raised_when_its_trial_is_reached(self, monkeypatch):
        each = monometric.monotone.hermitian_eig_each
        forced = NoConvergence("forced at the A of trial 2")

        def with_error(ms):
            out = each(ms)
            if len(out) == 12:  # the A and B of all six trials
                out[4] = forced
            return out

        monkeypatch.setattr(monometric.monotone, "hermitian_eig_each", with_error)
        seen = []
        with pytest.raises(NoConvergence) as raised:
            check_operator_monotone(lambda t: seen.append(t) or t, trials=6, dims=(2, 3), seed=1)
        assert raised.value is forced
        # f saw the A and B of trials 0 (n = 2) and 1 (n = 3) only
        assert len(seen) == 2 * 2 + 2 * 3


class TestEnvelope:
    def test_normalized_canonical_between_extremes(self):
        fmin, fmax = minimal_function(), maximal_function()
        for seed in (1, 6):
            f = CanonicalMonotone.normalized(step_weight(seed))
            for t in T_GRID:
                assert fmin(t) - 1e-9 <= f(t) <= fmax(t) + 1e-9

    def test_nondecreasing_samples(self):
        for f in (GammaFamily(0.2), CanonicalMonotone.normalized(step_weight(4))):
            vals = [f(t) for t in T_GRID]
            assert all(b >= a - 1e-11 for a, b in zip(vals, vals[1:]))
            assert all(v > 0 for v in vals)
