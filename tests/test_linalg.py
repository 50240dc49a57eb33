"""Jacobi eigensolver and spectral functions, cross-checked against numpy."""

import itertools
import math
import warnings

import numpy as np
import pytest

import monometric.linalg as la
from monometric import (
    DensityMatrix,
    DomainError,
    MonometricError,
    NoConvergence,
    NotAState,
    NotHermitian,
    hermitian_eig,
    matrix_function,
    min_eigenvalue,
)
from monometric.linalg import require_hermitian
from monometric.sampling import random_density, random_unitary
from oracle_loops import same_bits

RECON_TOL = 1e-11
# the two ways differ only in rounding: eigenvalues within this much of
# 1 + ||M||, eigenvectors of a simple spectrum entrywise within 1e3 times it
WAYS_TOL = 1e-13
ALL_DIMS = range(2, la.MAX_DIM + 1)


def thresholds(a):
    """The stopping target and skip bound ``_solve`` gives a matrix, or each
    matrix of a stack, with no entry above ``RESCALE_ABOVE``."""
    return la._thresholds(la._measure(a)[2], a.shape[-1])


def scalar_way(m):
    return la._jacobi_scalar(m, *map(float, thresholds(m)))


def vectorized_way(m):
    return la._jacobi_vectorized(m, *map(float, thresholds(m)))


def stack_way(ms):
    return la._jacobi_stack(ms, *thresholds(ms))


def spy_on_stack_way(monkeypatch, calls):
    """Record the size of each stack handed to ``_jacobi_stack``."""
    way = la._jacobi_stack
    monkeypatch.setattr(la, "_jacobi_stack", lambda a, *limits: calls.append(len(a)) or way(a, *limits))


WAYS = {"scalar": scalar_way, "vectorized": vectorized_way}


def handed_out(x):
    """A private way's raw output as ``_solve`` hands it out: ``_solve``
    clears the sign of every zero, for every outcome, as adding 0.0 does
    here, in real and imaginary parts; the ways may round an exact zero
    to different signs."""
    return np.asarray(x) + 0.0


def hermitian_part(m):
    return 0.5 * (m + m.conj().T)


def random_hermitian(rng, n):
    return hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def below_skip(rng, n):
    """One rotating pair; every other off-diagonal entry just below the skip bound."""
    m = np.diag(np.arange(1.0, n + 1)).astype(complex)
    m[0, 1] = m[1, 0] = 0.5
    _, skip = thresholds(m)
    tiny = np.triu(0.99 * skip * np.exp(2j * np.pi * rng.random((n, n))), 1)
    tiny[0, 1] = 0.0
    m = m + tiny + tiny.conj().T
    assert thresholds(m)[1] == skip
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
        assert dec.eigenvalues[0] == pytest.approx(0.25, rel=1e-15, abs=0.0)
        assert dec.eigenvalues[1] == pytest.approx(0.75, rel=1e-15, abs=0.0)

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
        assert same_bits(d1.eigenvalues, d2.eigenvalues)
        assert same_bits(d1.eigenvectors, d2.eigenvectors)

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
            assert same_bits(dec.eigenvalues, handed_out(eigs[order]))
            assert same_bits(dec.eigenvectors, handed_out(vecs[:, order]))


@pytest.mark.parametrize("n", ALL_DIMS)
def test_both_ways_across_the_supported_range(n):
    for kind, m in eigen_inputs(n).items():
        scale = 1.0 + np.linalg.norm(m)
        ref = np.linalg.eigvalsh(m)
        results = {}
        for name, way in WAYS.items():
            eigs, vecs = way(m)
            again = way(m)
            assert same_bits(eigs, again[0]) and same_bits(vecs, again[1]), (kind, name)
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
    stack_eigs, stack_vecs, stuck = stack_way(ms)
    assert not stuck.size
    outs = la.hermitian_eig_each(list(ms))
    for j, (kind, m) in enumerate(inputs.items()):
        # the stack rounds as the scalar way does, bit for bit, with zero
        # signs cleared as _solve clears them
        ref, ref_vecs = scalar_way(m)
        assert same_bits(handed_out(stack_eigs[j]), handed_out(ref)), kind
        assert same_bits(handed_out(stack_vecs[j]), handed_out(ref_vecs)), kind
        scale = 1.0 + np.linalg.norm(m)
        eigs, vecs = outs[j].eigenvalues, outs[j].eigenvectors
        alone = hermitian_eig(m)
        assert same_bits(eigs, alone.eigenvalues), kind
        assert same_bits(vecs, alone.eigenvectors), kind
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
        outs = la.hermitian_eig_each(list(ms[:count]))
        for j in range(count):
            assert same_bits(outs[j].eigenvalues, alone[j].eigenvalues), (count, j)
            assert same_bits(outs[j].eigenvectors, alone[j].eigenvectors), (count, j)


class TestStack:
    def test_each_member_keeps_its_own_thresholds(self):
        rng = np.random.default_rng(8)
        small = 1e-3 * random_hermitian(rng, 4)
        stack = np.stack([1e3 * random_hermitian(rng, 4), small, np.eye(4), 1e100 * small])
        together = stack_way(stack)
        alone = stack_way(small[None])
        # a target shared with the 1e3-scaled member would stop the small
        # one after no rotation at all
        assert same_bits(together[0][1], alone[0][0])
        assert same_bits(together[1][1], alone[1][0])
        ref = np.linalg.eigvalsh(small)
        assert np.allclose(np.sort(alone[0][0]), ref, rtol=0.0, atol=WAYS_TOL)
        ref_big = np.linalg.eigvalsh(stack[3])
        assert np.allclose(np.sort(together[0][3]), ref_big, rtol=0.0, atol=1e-12 * 1e100)

    @pytest.mark.parametrize("count", (1, 3, 5, 7))
    def test_stacks_of_one_and_of_odd_sizes(self, count):
        rng = np.random.default_rng(count)
        for n in (2, 3, 5):
            ms = np.stack([random_hermitian(rng, n) for _ in range(count)])
            eigs, vecs, stuck = stack_way(ms)
            assert not stuck.size
            for j, m in enumerate(ms):
                ref, ref_vecs = scalar_way(m)
                assert same_bits(handed_out(eigs[j]), handed_out(ref))
                assert same_bits(handed_out(vecs[j]), handed_out(ref_vecs))
            outs = la.hermitian_eig_each(list(ms))
            assert len(outs) == count
            for m, out in zip(ms, outs):
                assert out.eigenvalues.shape == (n,) and out.eigenvectors.shape == (n, n)
                scale = 1 + np.linalg.norm(m)
                assert np.allclose(out.eigenvalues, np.linalg.eigvalsh(m), rtol=0.0, atol=1e-12 * scale)
                assert np.linalg.norm(out.reconstruct() - m) <= RECON_TOL * scale

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
            target = float(thresholds(member(scale))[0])
            if in_order <= target < small_first:
                break
        else:
            pytest.fail("no scale splits the two sums")
        m = member(scale)
        ref, ref_vecs = scalar_way(m)
        assert same_bits(ref_vecs, np.eye(n, dtype=complex))  # stopped before the first sweep
        eigs, vecs, _ = stack_way(m[None])
        assert same_bits(handed_out(eigs[0]), handed_out(ref))
        assert same_bits(handed_out(vecs[0]), handed_out(ref_vecs))

    @pytest.mark.parametrize("n", (2, 3, 5, 11, 12))
    def test_small_stacks_go_matrix_by_matrix(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        ms = np.stack([random_hermitian(rng, n) for _ in range(la.SMALL_STACK)])
        calls = []
        spy_on_stack_way(monkeypatch, calls)
        for count in (1, 2, la.SMALL_STACK // n, la.SMALL_STACK // n + 1, la.SMALL_STACK):
            calls.clear()
            outs = la.hermitian_eig_each(list(ms[:count]))
            by_stack = n < la.SMALL_DIM and count * n >= la.SMALL_STACK
            assert calls == ([count] if by_stack else []), count
            # either way each member is what hermitian_eig gives alone
            for m, out in zip(ms, outs):
                alone = hermitian_eig(m)
                assert same_bits(out.eigenvalues, alone.eigenvalues)
                assert same_bits(out.eigenvectors, alone.eigenvectors)

    @pytest.mark.parametrize("sweeps", (0, 1))
    def test_no_convergence_when_sweeps_are_exhausted(self, sweeps, monkeypatch):
        # at one sweep the diagonal member is done, the dense ones are not
        monkeypatch.setattr(la, "MAX_SWEEPS", sweeps)
        rng = np.random.default_rng(4)
        ms = np.stack([np.diag([1.0, 2.0, 3.0]), random_hermitian(rng, 3), random_hermitian(rng, 3)])
        _, _, stuck = stack_way(ms.astype(complex))
        assert stuck.tolist() == ([0, 1, 2] if sweeps == 0 else [1, 2])
        outs = la.hermitian_eig_each(list(ms))
        assert [isinstance(out, NoConvergence) for out in outs] == [sweeps == 0, True, True]
        for out, m in zip(outs, ms):
            assert_outcome_alone(out, m)

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
                    scalar_way(m)
                    alone.append(True)
                except NoConvergence:
                    alone.append(False)
            _, _, stuck = stack_way(ms)
            assert stuck.tolist() == [j for j, done in enumerate(alone) if not done]

    def test_rejects_a_non_hermitian_member(self):
        ms = [np.eye(2)] * la.SMALL_STACK
        ms[1] = np.array([[0.0, 1.0], [0.0, 0.0]])
        outs = la.hermitian_eig_each(ms)
        assert isinstance(outs[1], NotHermitian)
        assert all(isinstance(out, la.HermitianEigen) for j, out in enumerate(outs) if j != 1)
        assert_outcome_alone(outs[1], ms[1])

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_a_non_finite_member(self, bad):
        ms = [np.eye(2)] * la.SMALL_STACK
        ms[2] = np.diag([1.0, bad])
        outs = la.hermitian_eig_each(ms)
        assert isinstance(outs[2], DomainError)
        assert all(isinstance(out, la.HermitianEigen) for j, out in enumerate(outs) if j != 2)
        assert_outcome_alone(outs[2], ms[2])

    @pytest.mark.parametrize(
        "ms", (np.eye(2), np.zeros((0, 2, 2)), np.zeros((2, 2, 3)), np.zeros((1, 2, 2, 2)))
    )
    def test_rejects_what_is_not_a_stack_of_square_matrices(self, ms):
        outs = la.hermitian_eig_each(list(ms))
        assert len(outs) == len(ms)
        for out, m in zip(outs, ms):
            assert isinstance(out, (DomainError, NotHermitian))
            assert_outcome_alone(out, m)

    def test_rejects_oversized(self):
        (out,) = la.hermitian_eig_each([np.eye(la.MAX_DIM + 1)])
        assert isinstance(out, DomainError)


def hermitian_eig_outcome(m):
    """What ``hermitian_eig`` gives ``m``: its decomposition or the error it raises."""
    try:
        return hermitian_eig(m)
    except MonometricError as exc:
        return exc


def assert_outcome_alone(out, m):
    """``out`` is what ``hermitian_eig`` gives ``m`` alone, bit for bit, or
    an error of the type and message it raises."""
    alone = hermitian_eig_outcome(m)
    if isinstance(alone, MonometricError):
        assert (type(out), str(out)) == (type(alone), str(alone))
        return
    assert same_bits(out.eigenvalues, alone.eigenvalues)
    assert same_bits(out.eigenvectors, alone.eigenvectors)


class TestEigEach:
    def test_interleaved_shapes_come_back_in_order_as_alone(self):
        # 20 matrices each of n = 2, 3, 8: every shape takes the stack way
        rng = np.random.default_rng(71)
        ms = [random_hermitian(rng, n) for _ in range(20) for n in (2, 3, 8)]
        outs = la.hermitian_eig_each(ms)
        assert len(outs) == len(ms)
        for out, m in zip(outs, ms):
            assert_outcome_alone(out, m)

    def test_a_non_hermitian_member_gets_its_own_error(self):
        rng = np.random.default_rng(73)
        ms = [random_hermitian(rng, 2) for _ in range(25)]
        ms[7] = np.array([[0.0, 1.0], [0.0, 0.0]])
        ms[11] = np.diag([1.0, math.nan])
        outs = la.hermitian_eig_each(ms)
        assert isinstance(outs[7], NotHermitian) and isinstance(outs[11], DomainError)
        for out, m in zip(outs, ms):
            assert_outcome_alone(out, m)

    def test_members_that_do_not_converge_get_their_own_error(self, monkeypatch):
        # after one sweep the diagonal members are done, the dense ones not
        monkeypatch.setattr(la, "MAX_SWEEPS", 1)
        rng = np.random.default_rng(79)
        dense = [random_hermitian(rng, 3) for _ in range(2)]
        ms = [np.diag([1.0, 2.0, 3.0]), dense[0], np.eye(3), dense[1]]
        _, _, stuck = stack_way(np.stack(ms).astype(complex))
        assert stuck.tolist() == [1, 3]
        outs = la.hermitian_eig_each(ms)
        assert [isinstance(out, NoConvergence) for out in outs] == [False, True, False, True]
        for out, m in zip(outs, ms):
            assert_outcome_alone(out, m)

    def test_failing_members_leave_one_stack_to_the_rest(self, monkeypatch):
        """A non-Hermitian, a non-finite and a non-converging member each
        get their own error, while the stack way runs once over all the
        members that pass the checks."""
        monkeypatch.setattr(la, "MAX_SWEEPS", 1)
        calls = []
        spy_on_stack_way(monkeypatch, calls)
        rng = np.random.default_rng(89)
        # diagonal members are done before the first sweep, a dense one not
        ms = [np.diag(rng.standard_normal(2)).astype(complex) for _ in range(la.SMALL_STACK)]
        ms[3] = np.array([[0.0, 1.0], [0.0, 0.0]])
        ms[11] = np.diag([1.0, math.nan])
        ms[17] = random_hermitian(rng, 2)
        outs = la.hermitian_eig_each(ms)
        assert calls == [len(ms) - 2]
        assert isinstance(outs[3], NotHermitian)
        assert isinstance(outs[11], DomainError)
        assert isinstance(outs[17], NoConvergence)
        assert sum(isinstance(out, la.HermitianEigen) for out in outs) == len(ms) - 3
        for out, m in zip(outs, ms):
            assert_outcome_alone(out, m)

    def test_what_is_no_square_matrix_gets_an_error(self):
        ms = [np.zeros((2, 3)), np.eye(2), np.zeros((2, 3)), np.ones(2), np.eye(la.MAX_DIM + 1)]
        outs = la.hermitian_eig_each(ms)
        kinds = [NotHermitian, la.HermitianEigen, NotHermitian, DomainError, DomainError]
        assert [type(out) for out in outs] == kinds
        for out, m in zip(outs, ms):
            assert_outcome_alone(out, m)

    def test_empty(self):
        assert la.hermitian_eig_each([]) == []

    def test_every_zero_leaves_as_plus_zero(self):
        """A -0.0 on the diagonal, which no rotation touches, and the
        eigenvector zeros that one 2x2 rotation on Python scalars rounds to
        -0.0: every zero that hermitian_eig and hermitian_eig_each hand out,
        alone or from the stack way, is +0.0."""
        rng = np.random.default_rng(131)
        ms = [np.diag([-0.0, 1.0]).astype(complex)] + [random_hermitian(rng, 2) for _ in range(la.SMALL_STACK)]
        for dec in (*map(hermitian_eig, ms), *la.hermitian_eig_each(ms)):
            for part in (dec.eigenvalues, dec.eigenvectors.real, dec.eigenvectors.imag):
                assert not np.signbit(part[part == 0.0]).any()


HUGE_SCALES = (1e160, 1e200, 1e300)


class TestRescale:
    """Matrices whose squared Frobenius norm overflows are diagonalized
    scaled down by a power of two."""

    @pytest.mark.parametrize("n", (2, 3, 8, 16, 32))
    @pytest.mark.parametrize("scale", HUGE_SCALES)
    def test_eigenvalues_match_numpy(self, scale, n):
        m = scale * random_hermitian(np.random.default_rng([83, n]), n)
        ref = np.linalg.eigvalsh(m)
        dec = hermitian_eig(m)
        assert np.allclose(dec.eigenvalues, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
        u = dec.eigenvectors
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= RECON_TOL

    @pytest.mark.parametrize("n", (2, 3, 8, 16, 32))
    def test_stack_members_are_what_they_are_alone(self, n):
        """Huge, ordinary and tiny members side by side, in a stack big
        enough for the stack way below SMALL_DIM."""
        rng = np.random.default_rng([89, n])
        scales = (*HUGE_SCALES, 1.0, 1e100, 1e-100) * max(1, la.SMALL_STACK // (6 * n) + 1)
        ms = [s * random_hermitian(rng, n) for s in scales]
        outs = la.hermitian_eig_each(ms)
        for j, m in enumerate(ms):
            alone = hermitian_eig(m)
            assert same_bits(outs[j].eigenvalues, alone.eigenvalues), j
            assert same_bits(outs[j].eigenvectors, alone.eigenvectors), j

    @pytest.mark.parametrize("n", (2, 3, 12))
    def test_power_of_two_scale_is_exact(self, n):
        """A matrix with its largest entry in [1, 2), scaled by 2^k, gives
        2^k times its eigenvalues and the same eigenvectors, bit for bit."""
        m = random_hermitian(np.random.default_rng([97, n]), n)
        m = m * 2.0 ** -math.frexp(np.abs(m).max())[1] * 2.0
        base = hermitian_eig(m)
        for k in (500, 700, 1000):
            big = hermitian_eig(m * 2.0**k)
            assert same_bits(big.eigenvalues, base.eigenvalues * 2.0**k), k
            assert same_bits(big.eigenvectors, base.eigenvectors), k

    @pytest.mark.parametrize("n", (2, 12))
    def test_below_the_bound_keeps_its_bits(self, n):
        m = random_hermitian(np.random.default_rng([101, n]), n)
        m = m * (0.5 * la.RESCALE_ABOVE / np.abs(m).max())
        eigs, vecs = WAYS["scalar" if n < la.SMALL_DIM else "vectorized"](m)
        order = np.argsort(eigs, kind="stable")
        dec = hermitian_eig(m)
        assert same_bits(dec.eigenvalues, handed_out(eigs[order]))
        assert same_bits(dec.eigenvectors, handed_out(vecs[:, order]))

    def test_eigenvalue_beyond_the_float_range_is_a_domain_error(self):
        m = np.full((2, 2), 1e308)
        with pytest.raises(DomainError, match="float range"):
            hermitian_eig(m)
        outs = la.hermitian_eig_each([np.eye(2)] * la.SMALL_STACK + [m])
        assert isinstance(outs[-1], DomainError) and "float range" in str(outs[-1])
        assert all(isinstance(out, la.HermitianEigen) for out in outs[:-1])

    def test_huge_indefinite_state_is_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAState, match="smallest eigenvalue"):
                DensityMatrix.from_matrix([[0.5, 1e160], [1e160, 0.5]])


class TestHugeNorms:
    """Norms of matrices whose squares overflow are summed scaled by a
    power of two."""

    @pytest.mark.parametrize("scale", HUGE_SCALES)
    def test_norms_match_numpy_on_scaled_input(self, scale):
        rng = np.random.default_rng(103)
        m = random_hermitian(rng, 3)
        skew = m + 1e-12 * rng.standard_normal((3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert la.frobenius(scale * m) == pytest.approx(scale * np.linalg.norm(m), rel=1e-15, abs=0.0)
            assert require_hermitian(scale * m) is not None
            rounded = scale * skew
            defect = la.hermiticity_defect(rounded)
            # the reference is taken of the matrix as rounded, brought back by
            # an exact power of two: rounding each entry of scale * skew moves
            # it by about 1e-16 of itself, 1e-4 of its 1e-12 antisymmetric part
            back = np.ldexp(rounded.view(float), -math.frexp(scale)[1]).view(complex)
            ref = np.linalg.norm(back - back.conj().T) / np.linalg.norm(back)
            assert defect == pytest.approx(ref, rel=1e-12, abs=0.0)
            scaled, shift, norms = la._measure(np.stack([scale * m, m, np.zeros((3, 3))]))
            assert np.ldexp(norms, shift).tolist() == [la.frobenius(scale * m), la.frobenius(m), 0.0]
            assert shift.tolist()[1:] == [0, 0] and same_bits(scaled[1], m)

    def test_nearly_hermitian_huge_matrix_is_accepted_as_the_eigensolver_accepts_it(self):
        m = np.array([[1e200, 1e180], [1e180 * (1 + 1e-13), 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert require_hermitian(m) is not None
            expected = [1e200 - 1e180, 1e200 + 1e180]
            assert hermitian_eig(m).eigenvalues.tolist() == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_huge_antisymmetric_matrix_is_not_hermitian_without_overflow(self):
        m = np.array([[0.0, 1e308], [-1e308, 0.0]])
        skew = random_hermitian(np.random.default_rng(109), 2) + 1e-3 * np.triu(np.ones((2, 2)), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian):
                require_hermitian(m)
            defect = la.hermiticity_defect(np.stack([m, skew]).astype(complex))
        # M - M* = 2M, so the defect is 2 ||M|| / (||M|| + 1)
        assert defect[0] == pytest.approx(2.0, rel=1e-15, abs=0.0)
        plain = la.frobenius(skew - skew.conj().T) / (la.frobenius(skew) + 1.0)
        assert defect[1] == plain == la.hermiticity_defect(skew)

    @pytest.mark.parametrize("skew, refused", ((1.5e-10, True), (0.99e-10, False)))
    def test_every_entry_checks_the_defect_of_the_matrix_itself(self, skew, refused, monkeypatch):
        """2^500 [[1, skew], [0, 1]] has defect skew: above HERM_TOL it is
        refused with one message by require_hermitian, hermitian_eig and
        hermitian_eig_each, alone and in a stack big enough for the stack
        way; just below HERM_TOL all three accept it."""
        m = 2.0**500 * np.array([[1.0, skew], [0.0, 1.0]], dtype=complex)
        assert la.hermiticity_defect(m) == pytest.approx(skew, rel=1e-12, abs=0.0)
        calls = []
        spy_on_stack_way(monkeypatch, calls)
        ms = [2.0**500 * np.eye(2)] * la.SMALL_STACK + [m]
        alone, (each,) = hermitian_eig_outcome(m), la.hermitian_eig_each([m])
        in_stack = la.hermitian_eig_each(ms)[-1]
        assert calls == [la.SMALL_STACK + (not refused)]
        if refused:
            with pytest.raises(NotHermitian) as caught:
                require_hermitian(m)
            message = f"matrix has symmetry defect {skew:.3e}, above tol {la.HERM_TOL:.3e}"
            assert str(caught.value) == message
            for out in (alone, each, in_stack):
                assert (type(out), str(out)) == (NotHermitian, message)
        else:
            assert require_hermitian(m) is not None
            for out in (each, in_stack):
                assert same_bits(out.eigenvalues, alone.eigenvalues)
                assert same_bits(out.eigenvectors, alone.eigenvectors)

    def test_real_input_is_measured_as_its_complex_copy(self):
        m = 2.0**500 * np.array([[1.0, 1.5e-10], [0.0, 1.0]])
        stack = np.stack([m, np.eye(2)])
        for real in (m, stack):
            assert same_bits(la.hermiticity_defect(real), la.hermiticity_defect(real.astype(complex)))
        assert la.frobenius(m) == la.frobenius(m.astype(complex))

    def test_below_the_bound_keeps_its_bits(self):
        m = random_hermitian(np.random.default_rng(107), 4)
        m *= 0.5 * la.RESCALE_ABOVE / np.abs(m).max()
        assert la.frobenius(m) == math.sqrt(float(np.add.reduce(np.abs(m) ** 2, axis=(0, 1))))


class TestApply:
    def test_one_matrix(self):
        rng = np.random.default_rng(29)
        m = random_hermitian(rng, 4)
        dec = hermitian_eig(m)
        values = rng.standard_normal(4)
        u = dec.eigenvectors
        assert same_bits(dec.apply(values), (u * values) @ u.conj().T)
        assert same_bits(dec.apply(list(values)), dec.apply(values))
        assert np.linalg.norm(dec.apply(dec.eigenvalues) - m) <= RECON_TOL * (1 + np.linalg.norm(m))

    def test_stack_members_as_alone(self):
        rng = np.random.default_rng(37)
        ms = [random_hermitian(rng, 3) for _ in range(20)]
        outs = la.hermitian_eig_each(ms)
        values = rng.standard_normal((20, 3))
        for j, m in enumerate(ms):
            alone = hermitian_eig(m)
            assert same_bits(outs[j].apply(values[j]), alone.apply(values[j])), j


class TestNonFiniteInput:
    def test_require_hermitian_rejects_nan(self):
        with pytest.raises(DomainError):
            require_hermitian(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    def test_infinite_eigenvalue_is_not_returned(self):
        with pytest.raises(DomainError):
            hermitian_eig(np.diag([math.inf, 0.5]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_defect_of_a_non_finite_matrix_is_nan_without_warnings(self, bad):
        rng = np.random.default_rng(113)
        finite = [random_hermitian(rng, 3), 2.0**500 * random_hermitian(rng, 3), rng.standard_normal((3, 3))]
        m = np.diag([bad, 1.0, 0.5]).astype(complex)
        m[0, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(la.hermiticity_defect(m))
            stacked = la.hermiticity_defect(np.stack([finite[0], m, finite[1], m, finite[2]]))
            alone = [la.hermiticity_defect(f) for f in finite]
            with pytest.raises(DomainError, match="non-finite"):
                require_hermitian(m)
        assert [math.isnan(d) for d in stacked.tolist()] == [False, True, False, True, False]
        # the finite members keep their bits
        assert same_bits(stacked[[0, 2, 4]], alone)
        assert same_bits(stacked[[0, 2, 4]], la.hermiticity_defect(np.stack(finite)))


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
        assert min_eigenvalue(np.diag([0.3, 0.7])) == pytest.approx(0.3, rel=1e-15, abs=0.0)

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
