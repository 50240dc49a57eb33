"""The stacked Gram-Schmidt: every member is orthonormalized bit for bit
as the column-by-column loop does it alone, or gets its own error."""

import warnings

import numpy as np
import pytest

from monometric import DegenerateSample, DomainError
from monometric.sampling import ginibre, orthonormal_columns, orthonormal_columns_each, random_unitary
from oracle_loops import gram_schmidt_loop, same_bits

SHAPES = [(rows, cols) for rows in range(2, 25) for cols in range(2, min(rows, 8) + 1)]


def outcome(fn, g):
    try:
        return fn(g)
    except DegenerateSample as exc:
        return exc


def assert_same(got, expected):
    """One outcome as another, bit for bit: the columns, or the error."""
    if isinstance(expected, DegenerateSample):
        assert (type(got), str(got)) == (DegenerateSample, str(expected))
    else:
        assert same_bits(got, expected)


@pytest.mark.parametrize("rows, cols", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_stack_members_are_the_loop_bit_for_bit(rows, cols):
    rng = np.random.default_rng([rows, cols])
    gs = [ginibre(rng, rows, cols) for _ in range(20)]
    for g, q in zip(gs, orthonormal_columns_each(gs)):
        expected = gram_schmidt_loop(g)
        assert_same(q, expected)
        assert_same(orthonormal_columns(g), expected)


def test_shapes_may_interleave():
    rng = np.random.default_rng(3)
    gs = [ginibre(rng, *shape) for shape in [(4, 2), (6, 3), (4, 2), (2, 2), (6, 3), (12, 2)] * 5]
    for g, q in zip(gs, orthonormal_columns_each(gs)):
        assert_same(q, gram_schmidt_loop(g))


@pytest.mark.parametrize("column", [1, 2])
def test_a_collapsed_member_gets_its_own_error_and_no_warning(column):
    rng = np.random.default_rng(11)
    gs = [ginibre(rng, 5, 3) for _ in range(6)]
    gs[2][:, column] = 2.0 * gs[2][:, 0]  # dependent on column 0
    gs[4][:, column] = 0.0  # nothing left to normalize
    gs[5][:, 1:] = gs[5][:, :1]  # columns 1 and 2 both collapse; the first is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = orthonormal_columns_each(gs)
        for g, q in zip(gs, outs):
            assert_same(q, outcome(gram_schmidt_loop, g))
    assert [isinstance(q, DegenerateSample) for q in outs] == [False, False, True, False, True, True]
    assert str(outs[2]) == f"column {column} is numerically dependent"
    assert str(outs[5]) == "column 1 is numerically dependent"
    with pytest.raises(DegenerateSample, match=f"column {column}"):
        orthonormal_columns(gs[4])


def test_more_columns_than_rows_is_a_domain_error():
    with pytest.raises(DomainError, match="3 columns in 2 rows"):
        orthonormal_columns(np.ones((2, 3)))


def test_random_unitary_is_unitary():
    for n in (2, 3, 8):
        u = random_unitary(np.random.default_rng(n), n)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12
