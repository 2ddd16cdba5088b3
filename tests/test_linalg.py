import copy
import pickle
from decimal import Decimal
from fractions import Fraction
from math import gcd
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfbrace as hb
import reference_linalg as ref
from hopfbrace import linalg
from hopfbrace.hopf import Element
from hopfbrace.linalg import Subspace, common_nullspace, span_of_indices


def v(entries):
    return Element(entries)


def test_sparse_vector_prunes_zeros_and_normalizes():
    x = v({0: Fraction(2, 4), 1: 0, 2: -1})
    assert x.coeffs == {0: Fraction(1, 2), 2: Fraction(-1)}
    assert 1 not in x.coeffs
    assert v({}).coeffs == {}


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
    x = v({np.int64(1): np.int64(3), 2: np.uint8(1)})
    assert x.coeffs == {1: 3, 2: 1}
    for idx, val in x.coeffs.items():
        assert type(idx) is int and type(val) is Fraction
        assert type(val.numerator) is int


@pytest.mark.parametrize("bad", [1.0, 1.5, "1", None, True, np.False_])
def test_sparse_vector_refuses_non_integer_indices(bad):
    with pytest.raises(TypeError):
        v({bad: 1})
    with pytest.raises(TypeError):
        span_of_indices([bad], 4)


def test_span_of_indices_keys_numpy_integers_as_python_ints():
    space = span_of_indices([np.int64(2), np.uint8(0), 3], 4)
    assert space == span_of_indices([0, 2, 3], 4)
    assert {type(k) for row in space.rows for k in row.nums} == {int}


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


@pytest.mark.parametrize("ambient, error", [
    (2.7, TypeError), (2.0, TypeError), (True, TypeError), ("2", TypeError),
    (None, TypeError), (-1, ValueError)])
def test_ambient_must_be_a_non_negative_integer(ambient, error):
    """Typed by ``skewbrace._integer``'s rule, never coerced by ``int``,
    which would read 2.7 as 2 and True as 1."""
    for call in (lambda: Subspace(ambient),
                 lambda: common_nullspace([], ambient),
                 lambda: span_of_indices([], ambient)):
        with pytest.raises(error):
            call()
    assert type(Subspace(np.int64(3)).ambient) is int


@pytest.mark.parametrize("rows", [
    (v({0: 1, 1: 1}), v({0: 1})),       # spans the plane, not canonically
    (v({0: 2}),),                       # not 1 at its pivot
    (v({1: 1}), v({0: 1})),             # pivots out of order
    (v({0: 1, 1: 3}), v({1: 1})),       # nonzero at another row's pivot
    (v({0: 1}), v({0: 1})),             # one pivot twice
    (v({}),),                           # a zero row
], ids=range(6))
def test_non_canonical_rows_are_refused(rows):
    """Equality and ``contains`` read the rows as the canonical basis, so
    rows that are not would answer wrongly; they are refused instead."""
    with pytest.raises(ValueError, match="canonical"):
        Subspace(2, rows)
    assert Subspace(2, (v({0: 1, 1: Fraction(1, 3)}),)).contains(
        v({0: 3, 1: 1}))
    with pytest.raises(IndexError):
        Subspace(2, (v({2: 1}),))


def test_contains_space_dimension_mismatch():
    with pytest.raises(ValueError):
        span_of_indices(range(2), 2).contains_space(
            span_of_indices(range(3), 3))


def test_span_of_indices():
    s = span_of_indices([0, 2], 4)
    assert s.dim == 2
    assert s.contains(v({0: 5, 2: -1}))
    assert not s.contains(v({1: 1}))
    for indices in ([0, 2], [2, 0], [2, 0, 2, 2], [np.int64(3), 1, 3], []):
        assert span_of_indices(indices, 4) == Subspace.row_space(
            [v({i: 1}) for i in indices], 4)
    with pytest.raises(IndexError):
        span_of_indices([1, 4], 4)
    with pytest.raises(IndexError):
        span_of_indices([-1], 4)


# ------------------------------------------------------- property checks

AMBIENT = 5

fractions = st.builds(Fraction,
                      st.integers(min_value=-6, max_value=6),
                      st.integers(min_value=1, max_value=4))
vectors = st.dictionaries(st.integers(min_value=0, max_value=AMBIENT - 1),
                          fractions, max_size=AMBIENT).map(Element)
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
            assert sum(c * basis_vec.coeffs.get(i, 0)
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
    return n, [Element(r) for r in rows]


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
@given(systems())
def test_eliminated_rows_are_primitive_and_reduced(system):
    """Each integer row has gcd 1, a positive entry at its pivot (its
    greatest index) and zero at every other pivot."""
    n, rows = system
    basis = linalg._eliminate(rows, n)
    assert len(basis) == ref.row_space(rows, n).dim
    for p, row in basis.items():
        assert p == max(row) and row[p] > 0
        assert gcd(*row.values()) == 1
        assert all(type(x) is int and x for x in row.values())
        assert not any(q in row for q in basis if q != p)


# ------------------------------------------- canonical vectors built directly

def renormalized(vec):
    """The same numerators through ``Element._make``'s normalisation."""
    return Element._make(dict(vec.nums), vec.den)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), max_size=12))
def test_span_of_indices_is_built_canonical(indices):
    rows = span_of_indices(indices, 41).rows
    assert rows == tuple(Element({g: 1}) for g in sorted(set(indices)))
    assert all(row == renormalized(row) for row in rows)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_basis_rows_are_built_canonical(system):
    """The row-space and null-space rows, filled in without normalising,
    equal their normalised numerators."""
    n, rows = system
    ints = [Element({i: c.numerator for i, c in r.coeffs.items()})
            for r in rows]
    for system_rows in (rows, ints):
        for space in (Subspace.row_space(system_rows, n),
                      common_nullspace(system_rows, n)):
            for r in space.rows:
                assert r == renormalized(r)


def test_values_survive_copy_deepcopy_and_pickle(radical_c4):
    """``Element``, ``Tensor2`` and ``Subspace`` rebuild through their
    unchecked canonical constructors, and so a whole ``SocleData`` does."""
    H = hb.HopfBrace(radical_c4)
    x = H.element({1: Fraction(2, 3), 3: -1})
    values = [*(H.basis(g) for g in range(4)), x, H.comultiply(x),
              span_of_indices([0], 2), Subspace.row_space([x], 4),
              hb.socle_annihilator(H)]
    for value in values:
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value
