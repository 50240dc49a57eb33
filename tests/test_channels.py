"""Kraus maps: validation, application, random generation, and the
contraction inequality that defines metric monotonicity."""

import math
import warnings

import numpy as np
import pytest

import monometric.channels

from monometric import (
    BridgeMC,
    CanonicalMC,
    DegenerateSample,
    DensityMatrix,
    DimensionMismatch,
    DomainError,
    KrausChannel,
    MetricSpec,
    MonometricError,
    NotAState,
    apply_channel,
    metric_quadratic,
    monotonicity_trial,
    random_channel,
)
from monometric.channels import RESAMPLE_CAP, _kraus_check, apply_channel_each, random_channel_each
from monometric.sampling import random_density, random_step_weight, random_tangent, random_unitary
from oracle_loops import apply_loop, random_channel_loop, same_bits, same_channel

BURES_SPEC = MetricSpec(c=BridgeMC(0.0))


def identity_channel(n):
    return KrausChannel(operators=(np.eye(n, dtype=complex),))


def pinching_channel():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return KrausChannel(operators=(p0, p1))


class TestKrausValidation:
    def test_accepts_identity(self):
        ch = identity_channel(3)
        assert ch.in_dim == 3 and ch.out_dim == 3

    def test_rejects_trace_leak(self):
        with pytest.raises(DomainError):
            KrausChannel(operators=(0.5 * np.eye(2, dtype=complex),))

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(operators=(np.eye(2, dtype=complex), np.eye(3, dtype=complex)))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            KrausChannel(operators=())

    @pytest.mark.parametrize(
        "op, reason",
        [
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
            (np.array([[1.0, np.inf], [0.0, 1.0]]), "non-finite"),
            (1e160 * np.eye(2), "modulus"),
        ],
        ids=["nan", "inf", "huge"],
    )
    def test_rejects_non_finite_and_huge_operators_without_warnings(self, op, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=reason):
                KrausChannel(operators=(op,))


class TestApplyChannel:
    def test_identity_leaves_input(self):
        x = random_tangent(np.random.default_rng(0), 3, False)
        assert np.allclose(apply_channel(identity_channel(3), x), x)

    def test_pinching_zeroes_off_diagonal(self):
        x = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
        out = apply_channel(pinching_channel(), x)
        assert np.allclose(out, np.diag([0.6, 0.4]))

    def test_unitary_conjugates(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 3)
        x = random_density(rng, 3)
        out = apply_channel(KrausChannel(operators=(u,)), x)
        assert np.allclose(out, u @ x @ u.conj().T)
        assert np.trace(out) == pytest.approx(np.trace(x), rel=1e-14, abs=0.0)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            ch = random_channel(3, 2, 3, seed=seed)
            x = random_density(rng, 3)
            out = apply_channel(ch, x)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
            assert abs(np.trace(out).imag) <= 1e-12
            assert np.linalg.norm(out - out.conj().T) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_channel(identity_channel(2), np.zeros((3, 3)))


class TestRandomChannel:
    def test_trace_preservation_across_shapes(self):
        for n, m, k in ((2, 2, 1), (2, 3, 2), (3, 2, 2), (4, 2, 3), (3, 3, 4)):
            ch = random_channel(n, m, k, seed=11)
            total = sum(op.conj().T @ op for op in ch.operators)
            assert np.linalg.norm(total - np.eye(n)) <= 1e-10

    def test_single_square_kraus_is_unitary(self):
        ch = random_channel(3, 3, 1, seed=5)
        (u,) = ch.operators
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10

    def test_seed_determinism(self):
        a = random_channel(3, 2, 2, seed=42)
        b = random_channel(3, 2, 2, seed=42)
        assert same_channel(a, b)
        c = random_channel(3, 2, 2, seed=43)
        assert not same_channel(a, c)

    def test_rejects_undersized_environment(self):
        # m*k < n cannot carry an isometry from dimension n
        with pytest.raises(DomainError):
            random_channel(3, 2, 1, seed=0)

    def test_rejects_out_of_range_dimensions(self):
        with pytest.raises(DomainError):
            random_channel(1, 2, 2, seed=0)
        with pytest.raises(DomainError):
            random_channel(2, 9, 1, seed=0)
        with pytest.raises(DomainError):
            random_channel(2, 2, 0, seed=0)

    @pytest.mark.parametrize("n, m", [(2.5, 2), (2, 3.0), ("2", 2)])
    def test_rejects_non_integer_dimensions(self, n, m):
        with pytest.raises(DomainError):
            random_channel(n, m, 2, seed=0)


class TestMonotonicityTrial:
    def test_unitary_channel_is_equality(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            u = random_unitary(rng, n)
            ch = KrausChannel(operators=(u,))
            rho = DensityMatrix.from_matrix(random_density(rng, n))
            a = random_tangent(rng, n, False)
            trial = monotonicity_trial(BURES_SPEC, ch, rho, a)
            assert abs(trial.slack) <= 1e-9 * (1 + abs(trial.rhs))

    def test_pinching_off_diagonal_tangent(self):
        # pinched off-diagonal A vanishes, so the contracted side is zero
        rho = DensityMatrix.from_matrix(np.diag([0.3, 0.7]).astype(complex))
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        trial = monotonicity_trial(BURES_SPEC, pinching_channel(), rho, a)
        assert trial.lhs == pytest.approx(0.0, abs=1e-12)
        assert trial.rhs > 0.0
        assert trial.slack == pytest.approx(trial.rhs, rel=0.0, abs=1e-12)

    def test_slack_composition(self):
        rng = np.random.default_rng(31)
        ch = random_channel(3, 2, 2, seed=77)
        rho = DensityMatrix.from_matrix(random_density(rng, 3))
        a = random_tangent(rng, 3, True)
        trial = monotonicity_trial(BURES_SPEC, ch, rho, a)
        assert trial.slack == pytest.approx(trial.rhs - trial.lhs, rel=1e-15, abs=0.0)
        assert trial.rhs == pytest.approx(metric_quadratic(BURES_SPEC, rho, a), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_bridge_metrics_contract(self, gamma):
        spec = MetricSpec(c=BridgeMC(gamma))
        rng = np.random.default_rng(101 + int(10 * gamma))
        accepted = 0
        attempt = 0
        while accepted < 60:
            attempt += 1
            ch = random_channel(
                int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2, seed=1000 + attempt
            )
            rho = DensityMatrix.from_matrix(random_density(rng, ch.in_dim))
            a = random_tangent(rng, ch.in_dim, bool(rng.integers(0, 2)))
            try:
                trial = monotonicity_trial(spec, ch, rho, a)
            except Exception:
                continue
            accepted += 1
            assert trial.slack >= -1e-9 * (1 + abs(trial.rhs))

    def test_a_raw_state_and_its_density_matrix_give_the_same_bits(self):
        rng = np.random.default_rng(37)
        ch = random_channel(3, 2, 2, seed=78)
        rho = random_density(rng, 3)
        a = random_tangent(rng, 3, False)
        raw = monotonicity_trial(BURES_SPEC, ch, rho, a)
        state = monotonicity_trial(BURES_SPEC, ch, DensityMatrix.from_matrix(rho), a)
        fields = lambda t: [t.lhs.hex(), t.rhs.hex(), t.slack.hex()]  # noqa: E731
        assert fields(raw) == fields(state)
        # K(T(A), T(A)) at T(rho), each formed alone
        image = DensityMatrix.from_matrix(apply_channel(ch, rho), floor=monometric.channels.TRIAL_STATE_FLOOR)
        assert raw.lhs.hex() == metric_quadratic(BURES_SPEC, image, apply_channel(ch, a)).hex()

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(2), "state trace (2+0j) not 1"),
            (
                np.array([[0.5, 0.1], [0.2, 0.5]]),
                "state not Hermitian: matrix has symmetry defect 8.120e-02, above tol 1.000e-10",
            ),
            (np.diag([1.0, 0.0]), "smallest eigenvalue 0.000e+00 at or below floor 1.0e-10"),
        ],
        ids=["trace two", "not Hermitian", "on the boundary"],
    )
    def test_a_raw_state_that_is_not_one_raises_its_not_a_state(self, rho, message):
        with pytest.raises(NotAState) as raised:
            monotonicity_trial(BURES_SPEC, random_channel(2, 2, 2, seed=1), rho, np.eye(2))
        assert str(raised.value) == message

    def test_canonical_metric_contracts(self):
        h = random_step_weight(np.random.default_rng(4))
        spec = MetricSpec(c=CanonicalMC.normalized(h))
        rng = np.random.default_rng(55)
        done = 0
        attempt = 0
        while done < 20:
            attempt += 1
            ch = random_channel(2, 2, 2, seed=2000 + attempt)
            rho = DensityMatrix.from_matrix(random_density(rng, 2))
            a = random_tangent(rng, 2, False)
            try:
                trial = monotonicity_trial(spec, ch, rho, a)
            except Exception:
                continue
            done += 1
            assert trial.slack >= -1e-9 * (1 + abs(trial.rhs))


def every_draw_shape():
    """(n, m, k) for n = 2..8, m = 2..4 and k from ceil(n/m) to ceil(n/m) + 2,
    and a few isometries of up to 24 rows."""
    shapes = [
        (n, m, k)
        for n in range(2, 9)
        for m in range(2, 5)
        for k in range(math.ceil(n / m), math.ceil(n / m) + 3)
    ]
    return shapes + [(8, 4, 6), (8, 3, 8), (5, 4, 5), (3, 2, 12)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except MonometricError as exc:
        return exc


def assert_same_outcome(got, expected):
    if isinstance(expected, MonometricError):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert same_channel(got, expected)


class TestRandomChannelEach:
    @pytest.mark.parametrize("group", [1, 2, 40])
    def test_members_are_the_channel_built_alone(self, group):
        rng = np.random.default_rng(group)
        draws = [(*shape, int(rng.integers(0, 2**31))) for shape in every_draw_shape() for _ in range(2)]
        draws = [draws[i] for i in rng.permutation(len(draws))]
        assert max(m * k for _, m, k, _ in draws) == 24
        for start in range(0, len(draws), group):
            chunk = draws[start : start + group]
            for draw, channel in zip(chunk, random_channel_each(chunk)):
                expected = random_channel_loop(*draw)
                assert same_channel(channel, expected), draw
                assert same_channel(random_channel(*draw), expected), draw

    def test_bad_draws_get_their_own_errors(self):
        draws = [(3, 2, 2, 1), (3, 2, 1, 2), (2, 9, 1, 3), (2, 2, 0, 4), (2.5, 2, 2, 5), (4, 3, 2, 6)]
        outs = random_channel_each(draws)
        assert [type(o) for o in outs] == [KrausChannel, DomainError, DomainError, DomainError, DomainError, KrausChannel]
        for draw, out in zip(draws, outs):
            assert_same_outcome(out, outcome(random_channel, *draw))

    def test_a_degenerate_member_is_redrawn_alone_from_its_own_generator(self, monkeypatch):
        draws = [(3, 2, 2, seed) for seed in (21, 22, 23)] + [(2, 3, 1, 24)]
        before = random_channel_each(draws)
        real = monometric.channels.ginibre
        seen = {}

        def collapse_first(rng, rows, cols):
            g = real(rng, rows, cols)
            seen[id(rng)] = seen.get(id(rng), 0) + 1
            if rng.bit_generator.seed_seq.entropy == [22] and seen[id(rng)] == 1:
                g[:, 1] = g[:, 0]
            return g

        monkeypatch.setattr(monometric.channels, "ginibre", collapse_first)
        after = random_channel_each(draws)
        assert sorted(seen.values()) == [1, 1, 1, 2]  # only the degenerate one is redrawn
        for k, (draw, channel) in enumerate(zip(draws, after)):
            seen.clear()
            expected = random_channel_loop(*draw)
            assert same_channel(channel, expected)
            assert same_channel(channel, before[k]) == (k != 1)  # its neighbours keep their bits

    def test_a_member_that_stays_degenerate_gets_its_own_error(self, monkeypatch):
        real = monometric.channels.ginibre
        calls = []

        def always_collapse_22(rng, rows, cols):
            g = real(rng, rows, cols)
            if rng.bit_generator.seed_seq.entropy == [22]:
                calls.append(rows)
                g[:, 1] = 0.0
            return g

        monkeypatch.setattr(monometric.channels, "ginibre", always_collapse_22)
        draws = [(3, 2, 2, seed) for seed in (21, 22, 23)]
        outs = random_channel_each(draws)
        assert len(calls) == RESAMPLE_CAP
        assert (type(outs[1]), str(outs[1])) == (DegenerateSample, f"no isometry after {RESAMPLE_CAP} draws")
        with pytest.raises(DegenerateSample, match=f"after {RESAMPLE_CAP} draws"):
            random_channel(3, 2, 2, seed=22)
        for k in (0, 2):
            assert same_channel(outs[k], random_channel_loop(*draws[k]))


def bad_operator_sets():
    """Two-operator sets on M_2 that ``KrausChannel`` refuses, by reason."""
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    nan = half.copy()
    nan[0, 1] = np.nan
    inf = half.copy()
    inf[1, 1] = -np.inf
    return {
        "nan": (half, nan),
        "inf": (inf, half),
        "modulus": (3.0 * half, half),
        "huge": (1e160 * half, half),
        "trace": (half, 0.9 * half),
    }


class TestKrausCheckStack:
    @pytest.mark.parametrize("reason", sorted(bad_operator_sets()))
    @pytest.mark.parametrize("position", [0, 1, 4])
    def test_a_bad_member_gets_the_error_kraus_channel_raises_alone(self, reason, position):
        rng = np.random.default_rng(position)
        good = [random_channel(2, 2, 2, seed=int(s)).operators for s in rng.integers(0, 2**31, 5)]
        sets = list(good)
        sets[position] = bad_operator_sets()[reason]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = _kraus_check([np.stack([ops[i] for ops in sets]) for i in range(2)])
            expected = outcome(KrausChannel, sets[position])
        assert isinstance(expected, DomainError)
        assert (type(errors[position]), str(errors[position])) == (DomainError, str(expected))
        passed = [k for k, e in enumerate(errors) if not isinstance(e, DomainError)]
        assert passed == [k for k in range(len(sets)) if k != position]
        assert all(same_bits(np.stack(errors[k]), np.stack(sets[k])) for k in passed)


class TestApplyChannelEach:
    def test_members_are_apply_channel_bit_for_bit(self):
        rng = np.random.default_rng(5)
        draws = [(*shape, int(rng.integers(0, 2**31))) for shape in every_draw_shape()]
        channels = random_channel_each([draws[i] for i in rng.permutation(len(draws))])
        xs = [random_tangent(rng, c.in_dim, bool(rng.integers(0, 2))) for c in channels]
        for channel, x, y in zip(channels, xs, apply_channel_each(channels, xs)):
            assert same_bits(y, apply_channel(channel, x))
            assert same_bits(y, apply_loop(channel, x))

    def test_dimension_mismatch(self):
        channels = [identity_channel(2), identity_channel(3)]
        first, second = apply_channel_each(channels, [np.eye(2), np.eye(2)])
        assert same_bits(first, apply_channel(channels[0], np.eye(2)))
        assert isinstance(second, DimensionMismatch)
        assert str(second) == str(outcome(apply_channel, channels[1], np.eye(2)))
