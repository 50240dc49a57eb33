"""Sesquilinear form on tangent matrices at a positive definite state."""

import numpy as np
import pytest

from monometric import (
    BridgeMC,
    CanonicalMC,
    DensityMatrix,
    DimensionMismatch,
    MetricSpec,
    NotAState,
    eval_bridge,
    metric_form,
    metric_quadratic,
)
from monometric.sampling import (
    random_density,
    random_step_weight,
    random_tangent,
    random_unitary,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
BURES_SPEC = MetricSpec(c=BridgeMC(0.0))


def qubit_mixed():
    return DensityMatrix.from_matrix(np.eye(2, dtype=complex) / 2)


class TestStateValidation:
    def test_accepts_valid_state(self):
        rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]).astype(complex))
        assert rho.dim == 2

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAState):
            DensityMatrix.from_matrix(np.diag([0.9, 0.9]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotAState):
            DensityMatrix.from_matrix(m)

    def test_rejects_semidefinite(self):
        with pytest.raises(NotAState):
            DensityMatrix.from_matrix(np.diag([1.0, 0.0]).astype(complex))

    def test_rejects_indefinite(self):
        with pytest.raises(NotAState):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_loose_hermiticity_tolerance_carries_to_the_form(self):
        # defect 8e-9: accepted at herm_tol=1e-6, and the form must then
        # evaluate instead of re-checking at the default tolerance
        m = np.array([[0.25, 0.1 + 1e-8], [0.1, 0.75]], dtype=complex)
        rho = DensityMatrix.from_matrix(m, herm_tol=1e-6)
        k = metric_quadratic(BURES_SPEC, rho, SIGMA_X)
        herm = DensityMatrix.from_matrix(0.5 * (m + m.conj().T))
        assert k == pytest.approx(metric_quadratic(BURES_SPEC, herm, SIGMA_X), rel=1e-6)

    def test_floor_is_configurable(self):
        m = np.diag([1.0 - 1e-6, 1e-6]).astype(complex)
        DensityMatrix.from_matrix(m)  # fine at the default floor
        with pytest.raises(NotAState):
            DensityMatrix.from_matrix(m, floor=1e-4)


class TestHandComputedValues:
    def test_qubit_off_diagonal(self):
        # both off-diagonal terms contribute c(1/2,1/2) = 2 each
        k = metric_quadratic(BURES_SPEC, qubit_mixed(), SIGMA_X)
        assert k == pytest.approx(4.0, rel=1e-12)

    def test_diagonal_tangent_any_kernel(self):
        rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]).astype(complex))
        a = np.diag([1.0, -1.0]).astype(complex)
        for c in (BridgeMC(0.0), BridgeMC(0.5), BridgeMC(1.0)):
            k = metric_quadratic(MetricSpec(c=c), rho, a)
            assert k == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_zero_tangent(self):
        assert metric_quadratic(BURES_SPEC, qubit_mixed(), np.zeros((2, 2))) == 0.0

    def test_off_diagonal_pair_uses_kernel_value(self):
        rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]).astype(complex))
        k = metric_quadratic(MetricSpec(c=BridgeMC(0.5)), rho, SIGMA_X)
        assert k == pytest.approx(2.0 * eval_bridge(0.5, 0.25, 0.75), rel=1e-12)

    def test_diagonal_constant_scales(self):
        rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]).astype(complex))
        a = np.diag([1.0, -1.0]).astype(complex)
        k = metric_quadratic(MetricSpec(c=BridgeMC(0.0), diagonal_constant=3.0), rho, a)
        assert k == pytest.approx(16.0, rel=1e-12)


class TestQuadraticForm:
    def test_positive_on_nonzero_tangents(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            rho = DensityMatrix.from_matrix(random_density(rng, n))
            for hermitian in (True, False):
                a = random_tangent(rng, n, hermitian)
                assert metric_quadratic(BURES_SPEC, rho, a) > 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        rho = DensityMatrix.from_matrix(random_density(rng, 3))
        a = random_tangent(rng, 3, False)
        k1 = metric_quadratic(BURES_SPEC, rho, a)
        k2 = metric_quadratic(BURES_SPEC, rho, 2.0 * a)
        assert k2 == pytest.approx(4.0 * k1, rel=1e-12)

    def test_result_exactly_real(self):
        rng = np.random.default_rng(8)
        rho = DensityMatrix.from_matrix(random_density(rng, 4))
        a = random_tangent(rng, 4, False)
        k = metric_form(BURES_SPEC, rho, a, a)
        assert k.imag == 0.0


class TestSesquilinearAxioms:
    def test_adjoint_pair_symmetry(self):
        # K(A,B) = K(B*, A*)
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            rho = DensityMatrix.from_matrix(random_density(rng, n))
            a = random_tangent(rng, n, False)
            b = random_tangent(rng, n, False)
            lhs = metric_form(BURES_SPEC, rho, a, b)
            rhs = metric_form(BURES_SPEC, rho, b.conj().T, a.conj().T)
            assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(21)
        rho = DensityMatrix.from_matrix(random_density(rng, 3))
        a = random_tangent(rng, 3, False)
        b = random_tangent(rng, 3, False)
        assert metric_form(BURES_SPEC, rho, a, b) == pytest.approx(
            np.conj(metric_form(BURES_SPEC, rho, b, a)), rel=1e-11
        )

    def test_linearity_in_second_argument(self):
        rng = np.random.default_rng(31)
        rho = DensityMatrix.from_matrix(random_density(rng, 3))
        a = random_tangent(rng, 3, False)
        b1 = random_tangent(rng, 3, False)
        b2 = random_tangent(rng, 3, False)
        z = 0.7 - 1.3j
        combined = metric_form(BURES_SPEC, rho, a, b1 + z * b2)
        split = metric_form(BURES_SPEC, rho, a, b1) + z * metric_form(BURES_SPEC, rho, a, b2)
        assert combined == pytest.approx(split, rel=1e-11)

    def test_conjugate_linearity_in_first_argument(self):
        rng = np.random.default_rng(41)
        rho = DensityMatrix.from_matrix(random_density(rng, 3))
        a1 = random_tangent(rng, 3, False)
        a2 = random_tangent(rng, 3, False)
        b = random_tangent(rng, 3, False)
        z = -0.2 + 0.9j
        combined = metric_form(BURES_SPEC, rho, a1 + z * a2, b)
        split = metric_form(BURES_SPEC, rho, a1, b) + np.conj(z) * metric_form(
            BURES_SPEC, rho, a2, b
        )
        assert combined == pytest.approx(split, rel=1e-11)


class TestCovariance:
    def test_unitary_covariance(self):
        rng = np.random.default_rng(52)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            rho_m = random_density(rng, n)
            a = random_tangent(rng, n, False)
            u = random_unitary(rng, n)
            base = metric_quadratic(BURES_SPEC, DensityMatrix.from_matrix(rho_m), a)
            rotated = metric_quadratic(
                BURES_SPEC,
                DensityMatrix.from_matrix(u @ rho_m @ u.conj().T),
                u @ a @ u.conj().T,
            )
            assert rotated == pytest.approx(base, rel=1e-9)

    def test_rotated_basis_matches_diagonal_evaluation(self):
        rng = np.random.default_rng(61)
        w = np.array([0.2, 0.3, 0.5])
        u = random_unitary(rng, 3)
        rho = DensityMatrix.from_matrix(u @ np.diag(w).astype(complex) @ u.conj().T)
        a = random_tangent(rng, 3, True)
        a_diag_basis = u.conj().T @ a @ u
        direct = metric_quadratic(BURES_SPEC, rho, a)
        diag = metric_quadratic(
            BURES_SPEC, DensityMatrix.from_matrix(np.diag(w).astype(complex)), a_diag_basis
        )
        assert direct == pytest.approx(diag, rel=1e-9)

    def test_degenerate_spectrum_needs_no_special_case(self):
        rho = DensityMatrix.from_matrix(np.eye(3, dtype=complex) / 3)
        a = random_tangent(np.random.default_rng(7), 3, False)
        k = metric_quadratic(BURES_SPEC, rho, a)
        assert k > 0.0


class TestErrors:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metric_quadratic(BURES_SPEC, qubit_mixed(), np.zeros((3, 3)))

    def test_canonical_kernel_also_works(self):
        h = random_step_weight(np.random.default_rng(17))
        spec = MetricSpec(c=CanonicalMC.normalized(h))
        k = metric_quadratic(spec, qubit_mixed(), SIGMA_X)
        # at x = y = 1/2 every normalized kernel gives c = 2
        assert k == pytest.approx(4.0, rel=1e-9)
