from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbrace.linalg import (SparseVector, Subspace, common_nullspace,
                              span_of_indices)


def v(entries):
    return SparseVector(entries)


def test_sparse_vector_prunes_zeros_and_normalizes():
    x = v({0: Fraction(2, 4), 1: 0, 2: -1})
    assert x.entries == {0: Fraction(1, 2), 2: Fraction(-1)}
    assert x.get(1) == 0
    assert not x.is_zero()
    assert v({}).is_zero()


def test_sparse_vector_arithmetic():
    x, y = v({0: 1, 1: 2}), v({1: -2, 2: 3})
    assert x.add(y) == v({0: 1, 2: 3})
    assert x.sub(x).is_zero()
    assert x.scale(Fraction(1, 2)) == v({0: Fraction(1, 2), 1: 1})


def test_rref_collapses_dependent_rows():
    space = Subspace.row_space([v({0: 1, 1: 2}), v({0: 2, 1: 4})], 2)
    assert space.dim == 1
    assert space.rows == (v({0: 1, 1: 2}),)


def test_rref_empty_and_full():
    assert Subspace.row_space([], 3).dim == 0
    full = Subspace.row_space([v({0: 1}), v({1: 1})], 2)
    assert full.dim == 2
    assert full == span_of_indices(range(2), 2)


def test_rref_index_out_of_range():
    with pytest.raises(IndexError):
        Subspace.row_space([v({5: 1})], 3)


def test_contains_scalar_multiple():
    space = Subspace.row_space([v({0: 1, 1: 2})], 2)
    assert space.contains(v({0: 3, 1: 6}))
    assert not space.contains(v({0: 1}))
    assert Subspace.row_space([], 2).contains(v({}))


def test_contains_dimension_mismatch():
    with pytest.raises(IndexError):
        Subspace.row_space([v({0: 1})], 2).contains(v({5: 1}))


def test_nullspace_examples():
    space = common_nullspace([v({0: 1, 1: -1})], 2)
    assert space.rows == (v({0: 1, 1: 1}),)
    assert common_nullspace([], 2) == span_of_indices(range(2), 2)
    assert common_nullspace([v({0: 1}), v({1: 1})], 2).dim == 0


def test_contains_space_dimension_mismatch():
    with pytest.raises(ValueError):
        span_of_indices(range(2), 2).contains_space(
            span_of_indices(range(3), 3))


def test_span_of_indices():
    s = span_of_indices([0, 2], 4)
    assert s.dim == 2
    assert s.contains(v({0: 5, 2: -1}))
    assert not s.contains(v({1: 1}))


# ------------------------------------------------------- property checks

AMBIENT = 5

fractions = st.builds(Fraction,
                      st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))
vectors = st.dictionaries(st.integers(min_value=0, max_value=AMBIENT - 1),
                          fractions, max_size=AMBIENT).map(SparseVector)
vector_lists = st.lists(vectors, max_size=5)


@settings(max_examples=60, deadline=None)
@given(vector_lists)
def test_rref_is_idempotent(rows):
    space = Subspace.row_space(rows, AMBIENT)
    assert Subspace.row_space(space.rows, AMBIENT) == space


@settings(max_examples=60, deadline=None)
@given(vector_lists, st.randoms(use_true_random=False))
def test_rref_canonical_under_shuffling_and_scaling(rows, rnd):
    space = Subspace.row_space(rows, AMBIENT)
    mangled = [r.scale(Fraction(rnd.choice([1, 2, 3, -1]),
                                rnd.choice([1, 2]))) for r in rows]
    rnd.shuffle(mangled)
    extra = [a.add(b) for a, b in zip(rows, rows[1:])]
    assert Subspace.row_space(mangled + extra, AMBIENT) == space


@settings(max_examples=60, deadline=None)
@given(vector_lists)
def test_rref_contains_its_inputs(rows):
    space = Subspace.row_space(rows, AMBIENT)
    assert all(space.contains(r) for r in rows)


@settings(max_examples=60, deadline=None)
@given(vector_lists)
def test_nullspace_is_orthogonal_and_has_complementary_dim(rows):
    constraints = Subspace.row_space(rows, AMBIENT)
    null = common_nullspace(rows, AMBIENT)
    assert null.dim == AMBIENT - constraints.dim
    for row in rows:
        for basis_vec in null.rows:
            assert sum(c * basis_vec.get(i) for i, c in row.items()) == 0

