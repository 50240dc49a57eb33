"""Jacobi eigensolver and spectral functions, cross-checked against numpy."""

import itertools
import math

import numpy as np
import pytest

import monometric.linalg as la
from monometric import (
    DomainError,
    NoConvergence,
    NotHermitian,
    hermitian_eig,
    matrix_function,
    min_eigenvalue,
)
from monometric.linalg import require_hermitian
from monometric.sampling import random_density, random_unitary

RECON_TOL = 1e-11
# the two ways differ only in rounding: eigenvalues within this much of
# 1 + ||M||, eigenvectors of a simple spectrum entrywise within 1e3 times it
WAYS_TOL = 1e-13
WAYS = {"scalar": la._jacobi_scalar, "vectorized": la._jacobi_vectorized}
ALL_DIMS = range(2, la.MAX_DIM + 1)


def hermitian_part(m):
    return 0.5 * (m + m.conj().T)


def random_hermitian(rng, n):
    return hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def below_skip(rng, n):
    """One rotating pair; every other off-diagonal entry just below the skip bound."""
    m = np.diag(np.arange(1.0, n + 1)).astype(complex)
    m[0, 1] = m[1, 0] = 0.5
    _, skip = la._thresholds(m)
    tiny = np.triu(0.99 * skip * np.exp(2j * np.pi * rng.random((n, n))), 1)
    tiny[0, 1] = 0.0
    m = m + tiny + tiny.conj().T
    assert la._thresholds(m)[1] == skip
    return m


def eigen_inputs(n):
    """Named test matrices of dimension n."""
    rng = np.random.default_rng([47, n])
    u = random_unitary(rng, n)
    return {
        "random": random_hermitian(rng, n),
        "state": hermitian_part(random_density(rng, n)),
        "scaled-up": 1e100 * random_hermitian(rng, n),
        "scaled-down": 1e-100 * random_hermitian(rng, n),
        "diagonal": np.diag(rng.standard_normal(n)).astype(complex),
        "identity": np.eye(n, dtype=complex),
        "repeated": hermitian_part((u * np.tile([0.25, 1.0, 4.0], n)[:n]) @ u.conj().T),
        "below-skip": below_skip(rng, n),
    }


SIMPLE_SPECTRUM = ("random", "state", "scaled-up")


class TestHermitianEig:
    def test_identity(self):
        dec = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
        assert np.linalg.norm(dec.reconstruct() - np.eye(3)) <= RECON_TOL

    def test_already_diagonal(self):
        dec = hermitian_eig(np.diag([0.25, 0.75]).astype(complex))
        assert dec.eigenvalues[0] == pytest.approx(0.25)
        assert dec.eigenvalues[1] == pytest.approx(0.75)

    def test_eigenvalues_sorted_ascending(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            dec = hermitian_eig(random_hermitian(rng, n))
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 7):
            m = random_hermitian(rng, n)
            dec = hermitian_eig(m)
            u = dec.eigenvectors
            assert np.linalg.norm(dec.reconstruct() - m) <= RECON_TOL * (1 + np.linalg.norm(m))
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= RECON_TOL

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(17)
        for n in (2, 4, 6):
            m = random_hermitian(rng, n)
            ours = hermitian_eig(m).eigenvalues
            ref = np.linalg.eigvalsh(m)
            assert np.allclose(ours, ref, atol=1e-12 * (1 + np.linalg.norm(m)))

    def test_deterministic(self):
        m = random_hermitian(np.random.default_rng(3), 4)
        d1 = hermitian_eig(m)
        d2 = hermitian_eig(m)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_higher_rank_input(self):
        with pytest.raises(DomainError):
            hermitian_eig(np.zeros((2, 2, 2)))

    def test_rejects_oversized(self):
        with pytest.raises(DomainError):
            hermitian_eig(np.eye(la.MAX_DIM + 1))

    def test_rejects_empty(self):
        empty = np.zeros((0, 0))
        for call in (hermitian_eig, min_eigenvalue, lambda m: matrix_function(m, math.exp)):
            with pytest.raises(DomainError, match="empty"):
                call(empty)

    def test_no_convergence_when_sweeps_exhausted(self, monkeypatch):
        monkeypatch.setattr(la, "MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence):
            hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_loose_tolerance_admits_slight_asymmetry(self):
        m = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
        dec = hermitian_eig(m)
        assert dec.eigenvalues.shape == (2,)


class TestRoundRobin:
    @pytest.mark.parametrize("n", range(1, la.MAX_DIM + 1))
    def test_steps_cover_every_pair_once_with_disjoint_pairs(self, n):
        steps = la._round_robin(n)
        assert len(steps) == (n if n % 2 else n - 1)
        pairs = [pair for step in steps for pair in step]
        assert sorted(pairs) == list(itertools.combinations(range(n), 2))
        for step in steps:
            touched = [i for pair in step for i in pair]
            assert len(touched) == len(set(touched))
            assert len(step) == n // 2

    def test_dimension_alone_picks_the_way(self):
        for n, way in ((la.SMALL_DIM - 1, "scalar"), (la.SMALL_DIM, "vectorized")):
            m = random_hermitian(np.random.default_rng(n), n)
            dec = hermitian_eig(m)
            eigs, vecs = WAYS[way](m)
            order = np.argsort(eigs, kind="stable")
            assert np.array_equal(dec.eigenvalues, eigs[order])
            assert np.array_equal(dec.eigenvectors, vecs[:, order])


@pytest.mark.parametrize("n", ALL_DIMS)
def test_both_ways_across_the_supported_range(n):
    for kind, m in eigen_inputs(n).items():
        scale = 1.0 + np.linalg.norm(m)
        ref = np.linalg.eigvalsh(m)
        results = {}
        for name, way in WAYS.items():
            eigs, vecs = way(m)
            again = way(m)
            assert np.array_equal(eigs, again[0]) and np.array_equal(vecs, again[1]), (kind, name)
            order = np.argsort(eigs, kind="stable")
            eigs, vecs = eigs[order], vecs[:, order]
            assert np.allclose(eigs, ref, rtol=0.0, atol=1e-12 * scale), (kind, name)
            recon = (vecs * eigs) @ vecs.conj().T
            assert np.linalg.norm(recon - m) <= RECON_TOL * scale, (kind, name)
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= RECON_TOL, (kind, name)
            results[name] = eigs, vecs
        (es, vs), (ev, vv) = results["scalar"], results["vectorized"]
        assert np.max(np.abs(es - ev)) <= WAYS_TOL * scale, kind
        if kind in SIMPLE_SPECTRUM:
            assert np.max(np.abs(vs - vv)) <= 1e3 * WAYS_TOL, kind


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("n", (2, la.MAX_DIM))
def test_both_ways_raise_when_sweeps_are_exhausted(way, n, monkeypatch):
    monkeypatch.setattr(la, "MAX_SWEEPS", 0)
    with pytest.raises(NoConvergence):
        WAYS[way](random_hermitian(np.random.default_rng(n), n))


@pytest.mark.parametrize("n", ALL_DIMS)
def test_stack_members_match_the_scalar_way(n):
    """Every kind of eigen_inputs in one stack: diagonal, identity, repeated,
    already converged and 1e+-100-scaled members side by side."""
    inputs = eigen_inputs(n)
    ms = np.stack(list(inputs.values()))
    stack_eigs, stack_vecs = la._jacobi_stack(ms)
    dec = la.hermitian_eig_stack(ms)
    for j, (kind, m) in enumerate(inputs.items()):
        # the stack rounds as the scalar way does, bit for bit
        ref, ref_vecs = la._jacobi_scalar(m)
        assert np.array_equal(stack_eigs[j], ref), kind
        assert np.array_equal(stack_vecs[j], ref_vecs), kind
        scale = 1.0 + np.linalg.norm(m)
        eigs, vecs = dec.eigenvalues[j], dec.eigenvectors[j]
        alone = hermitian_eig(m)
        assert np.array_equal(eigs, alone.eigenvalues), kind
        assert np.array_equal(vecs, alone.eigenvectors), kind
        assert np.all(np.diff(eigs) >= 0), kind
        assert np.allclose(eigs, np.linalg.eigvalsh(m), rtol=0.0, atol=1e-12 * scale), kind
        recon = (vecs * eigs) @ vecs.conj().T
        assert np.linalg.norm(recon - m) <= RECON_TOL * scale, kind
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= RECON_TOL, kind


def around_the_hand_off(n):
    """Stack sizes on both sides of B n = SMALL_STACK, and a stack of one."""
    k = la.SMALL_STACK // n
    return sorted({count for count in (1, k - 1, k, k + 1) if count >= 1})


@pytest.mark.parametrize("n", (2, 3, 8, 12, 16, 32))
def test_stack_members_are_what_hermitian_eig_gives_alone(n):
    """A matrix's eigendecomposition does not depend on the stack it is in,
    below SMALL_DIM and from it up, where the stack way would round unlike
    the one unitary per step of hermitian_eig."""
    rng = np.random.default_rng([61, n])
    counts = around_the_hand_off(n)
    ms = np.stack([random_hermitian(rng, n) for _ in range(counts[-1])])
    alone = [hermitian_eig(m) for m in ms]
    for count in counts:
        dec = la.hermitian_eig_stack(ms[:count])
        for j in range(count):
            assert np.array_equal(dec.eigenvalues[j], alone[j].eigenvalues), (count, j)
            assert np.array_equal(dec.eigenvectors[j], alone[j].eigenvectors), (count, j)


class TestStack:
    def test_each_member_keeps_its_own_thresholds(self):
        rng = np.random.default_rng(8)
        small = 1e-3 * random_hermitian(rng, 4)
        stack = np.stack([1e3 * random_hermitian(rng, 4), small, np.eye(4), 1e100 * small])
        together = la._jacobi_stack(stack)
        alone = la._jacobi_stack(small[None])
        # a target shared with the 1e3-scaled member would stop the small
        # one after no rotation at all
        assert np.array_equal(together[0][1], alone[0][0])
        assert np.array_equal(together[1][1], alone[1][0])
        ref = np.linalg.eigvalsh(small)
        assert np.allclose(np.sort(alone[0][0]), ref, rtol=0.0, atol=WAYS_TOL)
        ref_big = np.linalg.eigvalsh(stack[3])
        assert np.allclose(np.sort(together[0][3]), ref_big, rtol=0.0, atol=1e-12 * 1e100)

    @pytest.mark.parametrize("count", (1, 3, 5, 7))
    def test_stacks_of_one_and_of_odd_sizes(self, count):
        rng = np.random.default_rng(count)
        for n in (2, 3, 5):
            ms = np.stack([random_hermitian(rng, n) for _ in range(count)])
            eigs, vecs = la._jacobi_stack(ms)
            for j, m in enumerate(ms):
                ref, ref_vecs = la._jacobi_scalar(m)
                assert np.array_equal(eigs[j], ref) and np.array_equal(vecs[j], ref_vecs)
            dec = la.hermitian_eig_stack(ms)
            assert dec.eigenvalues.shape == (count, n)
            assert dec.eigenvectors.shape == (count, n, n)
            for m, eigs in zip(ms, dec.eigenvalues):
                assert np.allclose(eigs, np.linalg.eigvalsh(m), rtol=0.0, atol=1e-12 * (1 + np.linalg.norm(m)))
            assert np.linalg.norm(dec.reconstruct() - ms) <= RECON_TOL * (1 + np.linalg.norm(ms))

    def test_stopping_test_sums_in_row_order(self):
        """A member whose off-diagonal norm, summed in row order as the
        scalar way sums it, meets its target with one ulp to spare, while a
        sum that adds the small entries first would miss it."""
        n = 5
        upper = np.triu_indices(n, 1)
        big = 2.0**-46
        # squares of the small entries fall below half an ulp of big**2
        small = big * math.sqrt(0.45 * 2.0**-52)

        def member(scale):
            m = np.diag(scale * np.arange(1.0, n + 1)).astype(complex)
            m[upper] = [big] + [small] * 7 + [0.0, 0.0]
            return m + np.triu(m, 1).conj().T

        in_order = big * big
        for _ in range(7):
            in_order += small * small
        in_order = math.sqrt(2.0 * in_order)
        small_first = math.sqrt(2.0 * (big * big + small * small * 7.0))
        for step in range(-20, 20):
            scale = math.sqrt(2.0) * big / 5e-15 / math.sqrt(55.0) * (1.0 + step * 2.0**-52)
            target = float(la._thresholds(member(scale))[0])
            if in_order <= target < small_first:
                break
        else:
            pytest.fail("no scale splits the two sums")
        m = member(scale)
        ref, ref_vecs = la._jacobi_scalar(m)
        assert np.array_equal(ref_vecs, np.eye(n))  # stopped before the first sweep
        eigs, vecs = la._jacobi_stack(m[None])
        assert np.array_equal(eigs[0], ref) and np.array_equal(vecs[0], ref_vecs)

    @pytest.mark.parametrize("n", (2, 3, 5, 11, 12))
    def test_small_stacks_go_matrix_by_matrix(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        ms = np.stack([random_hermitian(rng, n) for _ in range(la.SMALL_STACK)])
        calls = []
        stack_way = la._jacobi_stack
        monkeypatch.setattr(la, "_jacobi_stack", lambda a: calls.append(len(a)) or stack_way(a))
        for count in (1, 2, la.SMALL_STACK // n, la.SMALL_STACK // n + 1, la.SMALL_STACK):
            calls.clear()
            dec = la.hermitian_eig_stack(ms[:count])
            by_stack = n < la.SMALL_DIM and count * n >= la.SMALL_STACK
            assert calls == ([count] if by_stack else []), count
            # either way each member is what hermitian_eig gives alone
            for m, eigs, vecs in zip(ms, dec.eigenvalues, dec.eigenvectors):
                alone = hermitian_eig(m)
                assert np.array_equal(eigs, alone.eigenvalues)
                assert np.array_equal(vecs, alone.eigenvectors)

    @pytest.mark.parametrize("sweeps", (0, 1))
    def test_no_convergence_when_sweeps_are_exhausted(self, sweeps, monkeypatch):
        # at one sweep the diagonal member is done, the dense ones are not
        monkeypatch.setattr(la, "MAX_SWEEPS", sweeps)
        rng = np.random.default_rng(4)
        ms = np.stack([np.diag([1.0, 2.0, 3.0]), random_hermitian(rng, 3), random_hermitian(rng, 3)])
        with pytest.raises(NoConvergence):
            la._jacobi_stack(ms.astype(complex))
        with pytest.raises(NoConvergence):
            la.hermitian_eig_stack(ms)

    @pytest.mark.parametrize("sweeps", range(4))
    def test_sweep_cap_as_in_the_scalar_way(self, sweeps, monkeypatch):
        # a 2x2 member is diagonal after one sweep, but like the scalar way
        # the stack only sees that at the check before the next sweep
        monkeypatch.setattr(la, "MAX_SWEEPS", sweeps)
        rng = np.random.default_rng(6)
        for n in (2, 3):
            ms = np.stack([random_hermitian(rng, n) for _ in range(3)])
            alone = []
            for m in ms:
                try:
                    la._jacobi_scalar(m)
                    alone.append(True)
                except NoConvergence:
                    alone.append(False)
            if all(alone):
                la._jacobi_stack(ms)
            else:
                with pytest.raises(NoConvergence):
                    la._jacobi_stack(ms)

    def test_rejects_a_non_hermitian_member(self):
        ms = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        with pytest.raises(NotHermitian, match="stack member 1"):
            la.hermitian_eig_stack(ms)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_a_non_finite_member(self, bad):
        ms = np.stack([np.eye(2), np.eye(2), np.diag([1.0, bad])])
        with pytest.raises(DomainError, match="stack member 2"):
            la.hermitian_eig_stack(ms)

    @pytest.mark.parametrize(
        "ms", (np.eye(2), np.zeros((0, 2, 2)), np.zeros((2, 2, 3)), np.zeros((1, 2, 2, 2)))
    )
    def test_rejects_what_is_not_a_stack_of_square_matrices(self, ms):
        with pytest.raises((DomainError, NotHermitian)):
            la.hermitian_eig_stack(ms)

    def test_rejects_oversized(self):
        with pytest.raises(DomainError):
            la.hermitian_eig_stack(np.eye(la.MAX_DIM + 1)[None])


class TestNonFiniteInput:
    def test_require_hermitian_rejects_nan(self):
        with pytest.raises(DomainError):
            require_hermitian(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    def test_infinite_eigenvalue_is_not_returned(self):
        with pytest.raises(DomainError):
            hermitian_eig(np.diag([math.inf, 0.5]))


class TestMatrixFunction:
    def test_identity_function(self):
        m = random_hermitian(np.random.default_rng(2), 4)
        assert np.linalg.norm(matrix_function(m, lambda w: w) - m) <= RECON_TOL * 10

    def test_sqrt_of_diagonal(self):
        out = matrix_function(np.diag([4.0, 9.0]).astype(complex), math.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_exp_matches_power_series(self):
        rng = np.random.default_rng(23)
        m = 0.5 * random_hermitian(rng, 3)
        series = np.zeros((3, 3), dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(31):
            series += term
            term = term @ m / (k + 1)
        assert np.linalg.norm(matrix_function(m, math.exp) - series) <= 1e-9

    def test_commutes_with_unitary_conjugation(self):
        rng = np.random.default_rng(31)
        m = random_hermitian(rng, 4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        lhs = matrix_function(u @ m @ u.conj().T, np.tanh)
        rhs = u @ matrix_function(m, np.tanh) @ u.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_composition_on_spectrum(self):
        m = random_hermitian(np.random.default_rng(41), 3)
        direct = matrix_function(m, lambda w: math.exp(0.5 * w))
        staged = matrix_function(matrix_function(m, lambda w: 0.5 * w), math.exp)
        assert np.linalg.norm(direct - staged) <= 1e-10

    def test_result_is_hermitian(self):
        m = random_hermitian(np.random.default_rng(7), 5)
        out = matrix_function(m, np.cos)
        assert np.linalg.norm(out - out.conj().T) == 0.0


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([0.3, 0.7])) == pytest.approx(0.3)

    def test_zero_matrix(self):
        assert min_eigenvalue(np.zeros((3, 3))) == 0.0

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5):
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert min_eigenvalue(b.conj().T @ b) >= -1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            min_eigenvalue(np.array([[0.0, 2.0], [0.0, 0.0]]))
