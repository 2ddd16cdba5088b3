from decimal import Decimal
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linalg as ref
from hopfbrace import linalg
from hopfbrace.linalg import (SparseVector, Subspace, common_nullspace,
                              span_of_indices)


def v(entries):
    return SparseVector(entries)


def test_sparse_vector_prunes_zeros_and_normalizes():
    x = v({0: Fraction(2, 4), 1: 0, 2: -1})
    assert x.entries == {0: Fraction(1, 2), 2: Fraction(-1)}
    assert 1 not in x.entries
    assert v({}).entries == {}


def test_sparse_vector_arithmetic():
    x, y = v({0: 1, 1: 2}), v({1: -2, 2: 3})
    assert ref.add(x, y) == v({0: 1, 2: 3})
    assert ref.sub(x, x) == v({})
    assert ref.scale(x, Fraction(1, 2)) == v({0: Fraction(1, 2), 1: 1})


def test_sparse_vector_takes_pairs_and_any_mapping():
    x = v({0: 1, 3: Fraction(-2, 3)})
    assert v([(3, Fraction(-2, 3)), (0, 1)]) == x
    assert v(MappingProxyType({0: 1, 3: Fraction(-2, 3)})) == x


def test_sparse_vector_entries_are_fractions_of_ints():
    x = v({np.int64(1): np.int64(3), 2: True})
    assert x.entries == {1: 3, 2: 1}
    for idx, val in x.entries.items():
        assert type(idx) is int and type(val) is Fraction
        assert type(val.numerator) is int


@pytest.mark.parametrize("bad", [1.0, 1.5, "1", None])
def test_sparse_vector_refuses_non_integer_indices(bad):
    with pytest.raises(TypeError):
        v({bad: 1})


@pytest.mark.parametrize("bad", [0.5, 1.0, float("nan"), np.float64(2.0),
                                 Decimal(1), "1", "1/2", None, 1j, [1]])
def test_sparse_vector_refuses_inexact_and_non_numeric_entries(bad):
    with pytest.raises(TypeError, match="exact rationals"):
        v({0: bad})
    with pytest.raises(TypeError, match="exact rationals"):
        v([(0, 1), (1, bad)])


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
    mangled = [ref.scale(r, Fraction(rnd.choice([1, 2, 3, -1]),
                                     rnd.choice([1, 2]))) for r in rows]
    rnd.shuffle(mangled)
    extra = [ref.add(a, b) for a, b in zip(rows, rows[1:])]
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
            assert sum(c * basis_vec.entries.get(i, 0)
                       for i, c in row.items()) == 0



# ------------------------------------------- against the reference solver

@st.composite
def systems(draw, max_ambient=16):
    """(ambient, rows): 0/1 fiber-like rows, zero rows and mixed-sign
    Fraction rows, with some rows repeated, in shuffled order."""
    n = draw(st.integers(min_value=1, max_value=max_ambient))
    index = st.integers(min_value=0, max_value=n - 1)
    fiber = st.sets(index, min_size=1).map(lambda s: dict.fromkeys(s, 1))
    mixed = st.dictionaries(index, fractions, max_size=n)
    rows = draw(st.lists(st.one_of(fiber, mixed, st.just({})), max_size=12))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    rows = draw(st.permutations(rows))
    return n, [SparseVector(r) for r in rows]


@settings(max_examples=150, deadline=None)
@given(systems())
def test_row_space_matches_the_reference(system):
    n, rows = system
    assert Subspace.row_space(rows, n) == ref.row_space(rows, n)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_nullspace_matches_the_reference_and_is_canonical(system):
    n, rows = system
    null = common_nullspace(rows, n)
    assert null == ref.common_nullspace(rows, n)
    assert Subspace.row_space(null.rows, n) == null


@settings(max_examples=150, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
def test_contains_matches_the_reference(system, rnd):
    n, rows = system
    space = Subspace.row_space(rows[:len(rows) // 2], n)
    combos = [ref.add(ref.scale(a, rnd.choice([1, -2, Fraction(1, 3)])), b)
              for a, b in zip(space.rows, space.rows[1:])]
    for probe in rows + combos + list(space.rows):
        assert space.contains(probe) == ref.contains(space, probe)
    assert all(space.contains(c) for c in combos)


@settings(max_examples=150, deadline=None)
@given(systems(), st.sampled_from([min, max]))
def test_eliminated_rows_are_primitive_and_reduced(system, pick):
    """Each integer row has gcd 1, a positive entry at its pivot (the
    least or greatest index, as picked) and zero at every other pivot."""
    n, rows = system
    basis = linalg._eliminate(rows, n, pick)
    assert len(basis) == ref.row_space(rows, n).dim
    for p, row in basis.items():
        assert p == pick(row) and row[p] > 0
        assert gcd(*row.values()) == 1
        assert all(type(x) is int and x for x in row.values())
        assert not any(q in row for q in basis if q != p)
