"""Sesquilinear form on tangent matrices at a positive definite state."""

import math

import numpy as np
import pytest

import monometric.linalg
import monometric.metric
from monometric import (
    BridgeMC,
    CanonicalMC,
    DensityMatrix,
    DimensionMismatch,
    DomainError,
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
from monometric.verify import _invalid_kernel

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

    def test_rejects_non_finite_before_diagonalizing(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolver called on a non-finite state")

        monkeypatch.setattr(monometric.metric, "hermitian_eig", no_eigensolve)
        for bad in (math.nan, math.inf):
            m = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
            with pytest.raises(NotAState):
                DensityMatrix.from_matrix(m)

    def test_an_eigenvalue_at_the_floor_is_rejected(self):
        floor = monometric.metric.STATE_EIG_FLOOR
        with pytest.raises(NotAState, match="at or below floor"):
            DensityMatrix.from_matrix(np.diag([1.0 - floor, floor]).astype(complex))
        ms = [np.diag([0.75, 0.25]).astype(complex), np.diag([0.5, 0.5]).astype(complex)]
        outcomes = DensityMatrix.from_matrices(ms, floor=0.25)
        assert [isinstance(out, NotAState) for out in outcomes] == [True, False]

    def test_floor_is_configurable(self):
        m = np.diag([1.0 - 1e-6, 1e-6]).astype(complex)
        DensityMatrix.from_matrix(m)  # fine at the default floor
        with pytest.raises(NotAState):
            DensityMatrix.from_matrix(m, floor=1e-4)


class TestStateStacks:
    def test_each_matrix_gets_the_outcome_from_matrix_gives_it(self):
        rng = np.random.default_rng(12)
        nan_state = np.diag([math.nan, 0.5]).astype(complex)
        inf_state = np.diag([math.inf, -math.inf, 1.0]).astype(complex)
        cases = [
            random_density(rng, 2),
            np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex),  # not Hermitian
            random_density(rng, 3),
            np.diag([0.9, 0.9, 0.9]).astype(complex),  # trace
            random_density(rng, 2),
            nan_state,
            np.diag([1.0, 0.0]).astype(complex),  # floor
            random_density(rng, 3),
            np.zeros((2, 3)),  # not square
            inf_state,
            random_density(rng, 2),
        ]
        outcomes = DensityMatrix.from_matrices(cases)
        assert len(outcomes) == len(cases)
        for m, out in zip(cases, outcomes):
            try:
                single = DensityMatrix.from_matrix(m)
            except NotAState as exc:
                assert isinstance(out, NotAState)
                assert str(out) == str(exc)
            else:
                assert isinstance(out, DensityMatrix)
                assert np.array_equal(out.matrix, single.matrix)
                assert np.allclose(out.eig.eigenvalues, single.eig.eigenvalues, rtol=0.0, atol=1e-14)
        assert sum(isinstance(out, DensityMatrix) for out in outcomes) == 5

    def test_floor_applies_to_every_member(self):
        ms = [np.diag([1.0 - x, x]).astype(complex) for x in (1e-6, 0.25, 1e-5, 0.5)]
        outcomes = DensityMatrix.from_matrices(ms, floor=1e-4)
        assert [isinstance(out, NotAState) for out in outcomes] == [True, False, True, False]

    def test_one_stack_eigensolve_per_shape(self, monkeypatch):
        calls = {"single": 0, "stack": 0}
        single, stack = monometric.metric.hermitian_eig, monometric.metric.hermitian_eig_stack

        def counted(key, fn):
            def call(m):
                calls[key] += 1
                return fn(m)

            return call

        monkeypatch.setattr(monometric.metric, "hermitian_eig", counted("single", single))
        monkeypatch.setattr(monometric.metric, "hermitian_eig_stack", counted("stack", stack))
        rng = np.random.default_rng(2)
        states = DensityMatrix.from_matrices([random_density(rng, 2 + k % 2) for k in range(6)])
        assert calls == {"single": 0, "stack": 2}
        a = random_tangent(rng, 3, hermitian=True)
        assert metric_quadratic(BURES_SPEC, states[1], a) > 0.0
        assert calls == {"single": 0, "stack": 2}
        DensityMatrix.from_matrices([random_density(rng, 3)])
        assert calls == {"single": 1, "stack": 2}


@pytest.mark.parametrize("n", (2, 3, 8, 12, 16, 32))
def test_a_state_does_not_depend_on_its_batch(n):
    rng = np.random.default_rng([1, n])
    k = monometric.linalg.SMALL_STACK // n
    ms = [random_density(rng, n) for _ in range(k + 1)]
    a = random_tangent(rng, n, hermitian=True)
    spec = MetricSpec(c=BridgeMC(0.5))
    alone = [DensityMatrix.from_matrix(m) for m in ms]
    for count in sorted({max(k - 1, 2), max(k, 2), k + 1}):
        for state, single in zip(DensityMatrix.from_matrices(ms[:count]), alone):
            assert np.array_equal(state.eig.eigenvalues, single.eig.eigenvalues), count
            assert np.array_equal(state.eig.eigenvectors, single.eig.eigenvectors), count
            assert metric_quadratic(spec, state, a) == metric_quadratic(spec, single, a), count


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
        # every term carries |At_ij|^2 at B = A, whatever the kernel; a
        # numpy complex array product may fuse the multiply and leave an
        # imaginary residue
        specs = (
            MetricSpec(c=BridgeMC(0.3)),
            MetricSpec(c=CanonicalMC.normalized(random_step_weight(np.random.default_rng(9)))),
            MetricSpec(c=_invalid_kernel),
        )
        rng = np.random.default_rng(8)
        for n in (2, 3, 8, 16, 32):
            rho = DensityMatrix.from_matrix(random_density(rng, n))
            for hermitian in (True, False):
                a = random_tangent(rng, n, hermitian)
                for spec in specs:
                    assert metric_form(spec, rho, a, a).imag == 0.0


class TestReference:
    @staticmethod
    def einsum_form(spec, rho, a, b):
        """Sum over k_ij conj(At_ij) Bt_ij with the kernel matrix built whole."""
        w = rho.eig.eigenvalues
        u = rho.eig.eigenvectors
        at = u.conj().T @ a @ u
        bt = u.conj().T @ b @ u
        k = np.array([[float(spec.c(x, y)) for y in w] for x in w])
        np.fill_diagonal(k, spec.diagonal_constant / w)
        return np.einsum("ij,ij,ij->", k, at.conj(), bt)

    def test_matches_einsum_evaluation(self):
        # a non-symmetric kernel and C != 1 catch swapped (w_i, w_j) and a
        # diagonal taken from the kernel; non-Hermitian a != b keep the
        # swapped terms from summing to the same value
        spec = MetricSpec(c=_invalid_kernel, diagonal_constant=2.5)
        rng = np.random.default_rng(71)
        for n in (1, 2, 3, 8, 16, 32):
            for rho_m in (random_density(rng, n), np.eye(n, dtype=complex) / n):
                rho = DensityMatrix.from_matrix(rho_m)
                a = random_tangent(rng, n, False)
                b = random_tangent(rng, n, False)
                ref = self.einsum_form(spec, rho, a, b)
                assert metric_form(spec, rho, a, b) == pytest.approx(ref, rel=1e-12)

    def test_one_hermiticity_check_and_one_eigensolve_per_state(self, monkeypatch):
        calls = {"defect": 0, "eig": 0}
        defect = monometric.linalg.hermiticity_defect
        eig = monometric.metric.hermitian_eig

        def counted_defect(m):
            calls["defect"] += 1
            return defect(m)

        def counted_eig(m):
            calls["eig"] += 1
            return eig(m)

        # count through every binding: a module that imports the function
        # by name holds its own
        for module in (monometric.linalg, monometric.metric):
            if getattr(module, "hermiticity_defect", None) is defect:
                monkeypatch.setattr(module, "hermiticity_defect", counted_defect)
        monkeypatch.setattr(monometric.metric, "hermitian_eig", counted_eig)
        rho = DensityMatrix.from_matrix(random_density(np.random.default_rng(3), 3))
        metric_form(BURES_SPEC, rho, np.eye(3), np.eye(3))
        assert calls == {"defect": 1, "eig": 1}


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
    def test_complex_kernel_value_raises(self):
        for value in (np.complex128(2 + 5j), 2 + 5j):
            spec = MetricSpec(c=lambda x, y, value=value: value)
            with pytest.raises(DomainError):
                metric_quadratic(spec, qubit_mixed(), SIGMA_X)

    def test_complex_kernel_value_with_zero_imaginary_part_is_real(self):
        for value in (np.complex128(2.0), 2 + 0j, np.float64(2.0), 2):
            spec = MetricSpec(c=lambda x, y, value=value: value)
            assert metric_quadratic(spec, qubit_mixed(), SIGMA_X) == 4.0

    def test_non_finite_kernel_values_propagate(self):
        for value, check in ((math.nan, math.isnan), (math.inf, math.isinf)):
            spec = MetricSpec(c=lambda x, y, value=value: value)
            assert check(metric_quadratic(spec, qubit_mixed(), SIGMA_X))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metric_quadratic(BURES_SPEC, qubit_mixed(), np.zeros((3, 3)))

    def test_canonical_kernel_also_works(self):
        h = random_step_weight(np.random.default_rng(17))
        spec = MetricSpec(c=CanonicalMC.normalized(h))
        k = metric_quadratic(spec, qubit_mixed(), SIGMA_X)
        # at x = y = 1/2 every normalized kernel gives c = 2
        assert k == pytest.approx(4.0, rel=1e-9)
