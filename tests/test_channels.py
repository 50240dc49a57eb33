"""Kraus maps: validation, application, random generation, and the
contraction inequality that defines metric monotonicity."""

import warnings

import numpy as np
import pytest

from monometric import (
    BridgeMC,
    CanonicalMC,
    DegenerateSample,
    DensityMatrix,
    DimensionMismatch,
    DomainError,
    KrausChannel,
    MetricSpec,
    apply_channel,
    metric_quadratic,
    monotonicity_trial,
    random_channel,
)
from monometric.sampling import random_density, random_step_weight, random_tangent, random_unitary

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
        assert np.trace(out) == pytest.approx(np.trace(x))

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
        assert all(np.array_equal(x, y) for x, y in zip(a.operators, b.operators))
        c = random_channel(3, 2, 2, seed=43)
        assert not all(np.array_equal(x, y) for x, y in zip(a.operators, c.operators))

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
        assert trial.slack == pytest.approx(trial.rhs)

    def test_slack_composition(self):
        rng = np.random.default_rng(31)
        ch = random_channel(3, 2, 2, seed=77)
        rho = DensityMatrix.from_matrix(random_density(rng, 3))
        a = random_tangent(rng, 3, True)
        trial = monotonicity_trial(BURES_SPEC, ch, rho, a)
        assert trial.slack == pytest.approx(trial.rhs - trial.lhs)
        assert trial.rhs == pytest.approx(metric_quadratic(BURES_SPEC, rho, a))

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
