"""Bivariate kernel functions c(x,y): bridge family, canonical form,
construction from monotone functions, and the axiom checker."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monometric import (
    BridgeMC,
    CanonicalMC,
    CanonicalMonotone,
    DomainError,
    FromMonotone,
    GammaFamily,
    WeightFunction,
    c_from_f,
    check_mc_axioms,
    eval_bridge,
    eval_canonical_c,
    maximal_function,
    minimal_function,
    normalize_C0,
    normalize_beta,
)
from monometric.chentsov import default_grid, default_pair_grid
from monometric.monotone import weighted_kernel_integral
from monometric.sampling import random_step_weight

SQRT2 = math.sqrt(2.0)

gammas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
coords = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def const_weight(v):
    return WeightFunction(breakpoints=(0.0, 1.0), values=(v,))


def step_weight(seed):
    return random_step_weight(np.random.default_rng(seed))


def thin_pairs(n=7):
    axis = default_grid(n)
    return [(x, y) for x in axis for y in axis]


class TestFromMonotone:
    def test_max_function_gives_two_over_sum(self):
        assert c_from_f(maximal_function(), 2.0, 4.0) == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)

    def test_min_function_gives_arithmetic_over_product(self):
        assert c_from_f(minimal_function(), 2.0, 4.0) == pytest.approx(0.375, rel=1e-15, abs=0.0)

    def test_diagonal_of_normalized_function(self):
        f = CanonicalMonotone.normalized(step_weight(2))
        for lam in (0.1, 1.0, 7.0):
            assert c_from_f(f, lam, lam) == pytest.approx(1.0 / lam, rel=1e-10, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            c_from_f(maximal_function(), 0.0, 1.0)
        with pytest.raises(DomainError):
            c_from_f(maximal_function(), 1.0, -2.0)

    @pytest.mark.parametrize("x, y", [(1e300, 1e-10), (1e-300, 1e300), (1e300, 1e-300), (1.0, 5e-324)])
    def test_a_ratio_beyond_the_float_range_names_the_arguments(self, x, y):
        # x/y overflows to inf or underflows to 0: the error is about (x, y),
        # never about a ratio the caller did not pass
        with pytest.raises(DomainError) as raised:
            FromMonotone(GammaFamily(0.5))(x, y)
        assert str(raised.value) == f"kernel arguments ({x}, {y}) have a ratio x/y beyond the float range"

    def test_a_ratio_within_the_float_range_keeps_its_bits(self):
        # 1e-10 / 1e300 is a subnormal ratio, still a positive float
        f = GammaFamily(0.5)
        for x, y in [(1e-10, 1e300), (5e-324, 1.0), (2.0, 4.0), (1e300, 1e-8)]:
            assert c_from_f(f, x, y).hex() == (1.0 / (y * f(x / y))).hex()
        assert c_from_f(f, 1e-10, 1e300) == pytest.approx(1e-145, rel=1e-12, abs=0.0)

    def test_a_value_past_the_float_range_reads_inf(self):
        # f(1) = e^-700 and y = 1e-300, so y f(x/y) underflows to 0 and
        # 1/(y f) is past the float range
        f = CanonicalMonotone(-700.0, WeightFunction((0.0, 1.0), (0.5,)))
        assert 1e-300 * f(1.0) == 0.0
        assert FromMonotone(f)(1e-300, 1e-300) == math.inf
        assert c_from_f(f, 1e-300, 1e-300) == math.inf
        # where y f does not underflow the value keeps its formula's bits
        assert c_from_f(f, 1e-10, 1e-10).hex() == (1.0 / (1e-10 * f(1.0))).hex()

    @given(gammas, coords, coords)
    def test_round_trip_through_bridge(self, g, x, y):
        assert c_from_f(GammaFamily(g), x, y) == pytest.approx(
            eval_bridge(g, x, y), rel=1e-10, abs=0.0
        )


class TestBridge:
    def test_geometric_mean_member(self):
        assert eval_bridge(0.5, 4.0, 9.0) == pytest.approx(1.0 / 6.0, rel=1e-15, abs=0.0)

    @given(gammas, coords)
    def test_diagonal_is_reciprocal(self, g, lam):
        assert eval_bridge(g, lam, lam) == pytest.approx(1.0 / lam, rel=1e-12, abs=0.0)

    def test_smallest_member(self):
        assert eval_bridge(0.0, 2.0, 4.0) == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            eval_bridge(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            eval_bridge(0.5, -1.0, 1.0)

    @given(gammas, coords, coords)
    def test_symmetry(self, g, x, y):
        assert eval_bridge(g, x, y) == pytest.approx(eval_bridge(g, y, x), rel=1e-13, abs=0.0)

    @given(gammas, coords, coords, st.sampled_from([0.1, 0.5, 2.0, 10.0]))
    def test_homogeneity(self, g, x, y, scale):
        assert eval_bridge(g, scale * x, scale * y) == pytest.approx(
            eval_bridge(g, x, y) / scale, rel=1e-12, abs=0.0
        )

    def test_ordering_in_gamma(self):
        for x, y in ((0.3, 2.0), (5.0, 700.0), (1e-3, 1e3)):
            vals = [eval_bridge(float(g), x, y) for g in np.linspace(0, 1, 9)]
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_log_affinity(self):
        for s in (0.0, 0.3, 0.5, 1.0):
            for g, d in ((0.0, 1.0), (0.2, 0.9)):
                for x, y in ((0.5, 3.0), (20.0, 0.04)):
                    blended = eval_bridge(s * g + (1 - s) * d, x, y)
                    split = eval_bridge(g, x, y) ** s * eval_bridge(d, x, y) ** (1 - s)
                    assert blended == pytest.approx(split, rel=1e-12, abs=0.0)


class TestCanonicalC:
    def test_zero_weight_closed_form(self):
        h0 = const_weight(0.0)
        for x, y in ((1.0, 1.0), (2.0, 4.0), (0.3, 11.0)):
            assert eval_canonical_c(2.0, h0, x, y) == pytest.approx(2.0 / (x + y), rel=1e-12, abs=0.0)

    def test_constant_weight_matches_bridge(self):
        for g in (0.0, 0.25, 0.5, 0.75, 1.0):
            h = const_weight(g)
            c0 = normalize_C0(h)
            for x, y in ((0.01, 0.01), (0.5, 2.0), (30.0, 0.2), (100.0, 100.0)):
                assert eval_canonical_c(c0, h, x, y) == pytest.approx(
                    eval_bridge(g, x, y), rel=1e-8, abs=0.0
                )

    def test_agrees_with_monotone_route(self):
        # sqrt(2) e^{-beta} is the right constant to match 1/(y f(x/y))
        for seed in (4, 12):
            h = step_weight(seed)
            beta = normalize_beta(h)
            c0 = SQRT2 * math.exp(-beta)
            f = CanonicalMonotone(beta=beta, h=h)
            for x, y in ((0.2, 0.9), (3.0, 0.04), (7.0, 7.0)):
                assert eval_canonical_c(c0, h, x, y) == pytest.approx(
                    c_from_f(f, x, y), rel=1e-8, abs=0.0
                )

    def test_symmetric_to_the_bit(self):
        h = step_weight(6)
        c = CanonicalMC.normalized(h)
        for x, y in ((0.2, 5.0), (1e-3, 40.0)):
            assert c(x, y) == c(y, x)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            eval_canonical_c(2.0, const_weight(0.0), 0.0, 1.0)
        with pytest.raises(DomainError):
            eval_canonical_c(-1.0, const_weight(0.0), 1.0, 1.0)

    @pytest.mark.parametrize("c0", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_scale_at_construction(self, c0):
        with pytest.raises(DomainError):
            CanonicalMC(c0=c0, h=const_weight(0.5))

    @pytest.mark.parametrize("x, y", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite_arguments(self, x, y):
        for c in (BridgeMC(0.5), CanonicalMC.normalized(const_weight(0.5)), FromMonotone(GammaFamily(0.5))):
            with pytest.raises(DomainError):
                c(x, y)


class TestNormalizeC0:
    def test_zero_weight(self):
        assert normalize_C0(const_weight(0.0)) == pytest.approx(2.0, rel=1e-15, abs=0.0)

    def test_full_weight(self):
        # c(1,1) = (C0/2) exp I(h==1) = 1 forces C0 = 1, the same value the
        # min-function kernel (x+y)/(2xy) takes as its own scale at (1,1)
        c0 = normalize_C0(const_weight(1.0))
        assert c0 == pytest.approx(1.0, abs=1e-10)
        assert eval_canonical_c(c0, const_weight(1.0), 1.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_half_weight(self):
        assert normalize_C0(const_weight(0.5)) == pytest.approx(SQRT2, rel=1e-10, abs=0.0)

    def test_consistency_with_beta(self):
        for seed in range(10):
            h = step_weight(seed)
            assert SQRT2 * math.exp(-normalize_beta(h)) == pytest.approx(
                normalize_C0(h), abs=1e-9
            )

    def test_normalized_diagonal(self):
        for seed in (3, 14):
            c = CanonicalMC.normalized(step_weight(seed))
            for lam in (0.01, 1.0, 250.0):
                assert c(lam, lam) == pytest.approx(1.0 / lam, rel=1e-9, abs=0.0)


class TestAxiomChecker:
    def test_bridge_family_passes(self):
        pairs = default_pair_grid(9)
        for g in (0.0, 0.25, 0.5, 0.75, 1.0):
            report = check_mc_axioms(BridgeMC(g), pairs)
            assert report.symmetry_max <= 1e-10
            assert report.homogeneity_max <= 1e-10
            assert report.diagonal_max <= 1e-10
            assert report.diagonal_constant == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_invalid_kernel_caught(self):
        report = check_mc_axioms(lambda x, y: 1.0 / x, [(1.0, 2.0)])
        assert report.symmetry_max > 0.1

    def test_nan_kernel_gives_nan(self):
        report = check_mc_axioms(lambda x, y: math.nan, thin_pairs())
        assert math.isnan(report.symmetry_max)
        assert math.isnan(report.homogeneity_max)
        assert math.isnan(report.diagonal_max)

    def test_canonical_random_weight_passes(self):
        report = check_mc_axioms(CanonicalMC.normalized(step_weight(9)), thin_pairs())
        assert report.symmetry_max <= 1e-8
        assert report.homogeneity_max <= 1e-8
        assert report.diagonal_max <= 1e-8


class TestStructuralLaws:
    def test_mixture_law(self):
        # blending weights multiplies the kernels pointwise (shared scale)
        g, h = const_weight(0.1), step_weight(7)
        c0 = 1.7
        for s in (0.0, 0.3, 0.5, 1.0):
            blend = h.blend(g, s)
            for x, y in ((0.4, 2.0), (9.0, 0.03)):
                mixed = eval_canonical_c(c0, blend, x, y)
                parts = (
                    eval_canonical_c(c0, h, x, y) ** s
                    * eval_canonical_c(c0, g, x, y) ** (1 - s)
                )
                assert mixed == pytest.approx(parts, rel=1e-8, abs=0.0)

    def test_monotone_in_weight(self):
        lo, hi = const_weight(0.2), const_weight(0.8)
        for x, y in ((0.5, 4.0), (12.0, 0.2), (3.0, 3.0)):
            assert eval_canonical_c(2.0, lo, x, y) <= eval_canonical_c(2.0, hi, x, y) + 1e-12

    def test_extremal_envelope(self):
        kernels = [BridgeMC(g) for g in (0.0, 0.4, 1.0)]
        kernels.append(CanonicalMC.normalized(step_weight(1)))
        kernels.append(FromMonotone(CanonicalMonotone.normalized(step_weight(5))))
        for c in kernels:
            for x, y in thin_pairs():
                lo = 2.0 / (x + y)
                hi = (x + y) / (2.0 * x * y)
                v = c(x, y)
                assert lo * (1 - 1e-9) <= v <= hi * (1 + 1e-9)

    def test_from_monotone_exposes_asymmetry(self):
        # construction does not symmetrize: an f violating f(t) = t f(1/t)
        # must produce a visibly asymmetric kernel, c(x,y) = 1/x here
        from monometric import Identity

        c = FromMonotone(Identity())
        assert c(1.0, 2.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert c(2.0, 1.0) == pytest.approx(0.5, rel=1e-15, abs=0.0)
        report = check_mc_axioms(c, [(1.0, 2.0)])
        assert report.symmetry_max > 0.1


def pieces_weight(pieces):
    """A weight of ``pieces`` equal-width pieces with seeded values."""
    values = np.random.default_rng([29, pieces]).uniform(0.0, 1.0, pieces)
    return WeightFunction(
        breakpoints=tuple(float(b) for b in np.linspace(0.0, 1.0, pieces + 1)),
        values=tuple(float(v) for v in values),
    )


# extreme magnitudes, the smallest subnormal and ratios of 1e+-10 about 1
EDGE_AXIS = (5e-324, 1e-300, 1e-10, 1.0, 1.5, 1e10, 1e300, 1e308)
EDGE_PAIRS = [(x, y) for x in EDGE_AXIS for y in EDGE_AXIS]


def outcome(c, x, y):
    """The value's bits, or the error's type and message."""
    try:
        return c(x, y).hex()
    except (ArithmeticError, DomainError) as exc:
        return type(exc), str(exc)


SYMMETRIC_KERNELS = {
    **{f"bridge-{g}": BridgeMC(g) for g in (0.0, 0.25, 0.5, 1.0)},
    **{f"canonical-{p}": CanonicalMC.normalized(pieces_weight(p)) for p in (1, 8, 16)},
}


def fresh(c):
    """An equal kernel whose weight is another object, so it keeps no
    integral that ``c`` or an earlier copy took."""
    if isinstance(c, CanonicalMC):
        return CanonicalMC(c.c0, WeightFunction(breakpoints=c.h.breakpoints, values=c.h.values))
    return c


@pytest.mark.parametrize("c", SYMMETRIC_KERNELS.values(), ids=SYMMETRIC_KERNELS.keys())
def test_symmetric_families_are_symmetric_to_the_bit(c):
    """``metric_form`` calls these kernels once per unordered pair. Each
    side is taken on its own copy, so both sum the weight's jumps."""
    assert c.symmetric is True
    evaluated = 0
    for x, y in EDGE_PAIRS:
        assert outcome(fresh(c), x, y) == outcome(fresh(c), y, x), (x, y)
        evaluated += isinstance(outcome(c, x, y), str)
    assert evaluated >= len(EDGE_PAIRS) // 2  # most of the grid evaluates


def test_symmetric_is_a_class_attribute_not_a_field():
    assert FromMonotone(GammaFamily(0.5)).symmetric is False
    c = BridgeMC(0.5)
    assert "symmetric" not in repr(c) and c == BridgeMC(0.5)


def _bridge_formula(g, x, y):
    return x ** (-g) * y ** (-g) * ((x + y) / 2.0) ** (2.0 * g - 1.0)


def _from_logs(log_value):
    """exp of a 40-digit log as a float: inf beyond the float range."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float(log_value().exp())


def _bridge_reference(g, x, y):
    """The bridge value summed from its logs at 40 digits, which no factor
    of the formula limits to the float range."""
    gx, gy, gg = Decimal(x), Decimal(y), Decimal(g)
    return _from_logs(lambda: -gg * (gx.ln() + gy.ln()) + (2 * gg - 1) * ((gx + gy) / 2).ln())


def assert_direct_or_log_domain(value, direct, reference, where):
    """``value`` is ``direct`` to the bit where that is a positive float;
    elsewhere it is ``reference`` to 1e-12, or inf where that is."""
    if 0.0 < direct < math.inf:
        assert value.hex() == direct.hex(), where
    elif reference == math.inf:
        assert value == math.inf, where
    else:
        assert value == pytest.approx(reference, rel=1e-12, abs=0.0), where


@pytest.mark.parametrize("g", (0.0, 0.25, 0.5, 0.97, 1.0))
def test_bridge_power_overflow_reads_inf(g):
    """Where a power or a product of the formula leaves the float range, the
    value is taken in the log domain, and reads inf only when it is itself
    beyond the range; every other value keeps the formula's bits."""
    c = BridgeMC(g)
    for x, y in EDGE_PAIRS:
        try:
            direct = _bridge_formula(g, x, y)
        except OverflowError:
            direct = math.inf
        assert_direct_or_log_domain(c(x, y), direct, _bridge_reference(g, x, y), (x, y))
    # c(v, v) = 1/v at every g: past the float range at the smallest subnormal
    assert c(5e-324, 5e-324) == math.inf
    if g == 1.0:
        # both factors x^-1 y^-1 overflow, or underflow, while c is 1/x
        assert c(1e-300, 1e-300) == pytest.approx(1e300, rel=1e-12, abs=0.0)
        assert c(1e300, 1e300) == pytest.approx(1e-300, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("h", [WeightFunction.constant(0.5), pieces_weight(8)], ids=["constant", "pieces-8"])
def test_canonical_value_past_the_range_of_its_prefactor(h):
    """Where c0 / (x + y) leaves the float range, the value is taken in the
    log domain; every other value keeps the formula's bits."""
    c = CanonicalMC.normalized(h)
    for x, y in EDGE_PAIRS:
        hi, lo = max(x, y), min(x, y)
        try:
            integral = weighted_kernel_integral(h, hi / lo)
        except DomainError:
            continue
        direct = c.c0 / (hi + lo) * math.exp(-integral)
        gx, gy = Decimal(x), Decimal(y)
        reference = _from_logs(lambda: Decimal(c.c0).ln() - (gx + gy).ln() - Decimal(integral))
        assert_direct_or_log_domain(c(x, y), direct, reference, (x, y))
    assert c(1e308, 1e308) == pytest.approx(1e-308, rel=1e-12, abs=0.0)


def _canonical_reference(c, x, y):
    """The canonical value at 40 digits: its integral summed over the jumps
    of h at t = min / max as a Decimal, which no float range limits."""
    hi, lo = Decimal(max(x, y)), Decimal(min(x, y))

    def log_value():
        t = lo / hi
        integral = sum(
            Decimal(d) * ((1 + Decimal(b) ** 2).ln() - (Decimal(b) + t).ln() - (1 + Decimal(b) * t).ln())
            for b, d in c.h.jumps
        )
        return Decimal(c.c0).ln() - (hi + lo).ln() - integral

    return _from_logs(log_value)


@pytest.mark.parametrize(
    "h",
    [
        *(WeightFunction.constant(v) for v in (0.0, 0.5, 1.0)),
        pieces_weight(8),
        # a breakpoint below some t = min / max: log(b + t) is not log b there
        WeightFunction(breakpoints=(0.0, 1e-315, 1.0), values=(0.25, 0.75)),
    ],
    ids=["constant-0", "constant-0.5", "constant-1", "pieces-8", "tiny-breakpoint"],
)
def test_canonical_value_where_the_ratio_of_its_arguments_overflows(h):
    """Where max / min leaves the float range, the integral is summed at
    log t: the value is the 40-digit reference to 1e-12, or inf where that
    is, and the same at (x, y) as at (y, x)."""
    c = CanonicalMC.normalized(h)
    pairs = [(x, y) for x, y in EDGE_PAIRS if max(x, y) / min(x, y) == math.inf]
    assert len(pairs) == 22
    for x, y in pairs:
        reference = _canonical_reference(c, x, y)
        if reference == math.inf:
            assert c(x, y) == math.inf, (x, y)
        else:
            assert c(x, y) == pytest.approx(reference, rel=1e-12, abs=0.0), (x, y)
        assert c(x, y) == c(y, x)


def test_canonical_kernel_matches_the_bridge_past_the_ratio_range():
    """The constant weight 1/2 gives the bridge kernel at g = 1/2, 1/sqrt(xy)."""
    c = CanonicalMC.normalized(WeightFunction.constant(0.5))
    assert c(1e-10, 1e300) == pytest.approx(BridgeMC(0.5)(1e-10, 1e300), rel=1e-12, abs=0.0)
    assert c(1e-10, 1e300) == pytest.approx(1e-145, rel=1e-12, abs=0.0)
