"""Law-style property tests for the group layer, and differential tests
of the mask kernel against the brute-force oracle."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import hopfbrace as hb
import oracle
from test_skewbrace import carrier, group_quotient

GROUPS = {
    "C6": hb.cyclic_group(6),
    "S3": hb.symmetric_group(3),
    "D4": hb.dihedral_group(4),
    "A4-table": hb.symmetric_group(4),
}

group_and_subset = st.sampled_from(sorted(GROUPS)).flatmap(
    lambda name: st.tuples(
        st.just(GROUPS[name]),
        st.lists(st.integers(min_value=0,
                             max_value=GROUPS[name].order - 1), max_size=4)))


@settings(max_examples=80, deadline=None)
@given(group_and_subset)
def test_subgroup_generated_is_a_fixed_point(gs):
    g, gens = gs
    sub = carrier(g.subgroup_generated(gens))
    assert g.is_subgroup(sub)
    assert carrier(g.subgroup_generated(sub)) == sub
    assert set(gens) <= set(sub)


@settings(max_examples=80, deadline=None)
@given(group_and_subset)
def test_normal_closure_is_normal_and_minimal(gs):
    g, gens = gs
    closure = carrier(g.normal_closure(gens))
    assert g.is_normal(closure)
    assert set(carrier(g.subgroup_generated(gens))) <= set(closure)


@settings(max_examples=40, deadline=None)
@given(group_and_subset)
def test_quotient_projection_is_a_homomorphism(gs):
    g, gens = gs
    n_carrier = carrier(g.normal_closure(gens))
    q, proj = group_quotient(g, n_carrier)
    for a in range(g.order):
        for b in range(g.order):
            assert proj[g.table[a, b]] == q.table[proj[a], proj[b]]
    assert sorted(set(proj)) == list(range(q.order))
    assert q.order * len(n_carrier) == g.order


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GROUPS)),
       st.integers(min_value=0), st.integers(min_value=0),
       st.integers(min_value=0))
def test_group_axioms_pointwise(name, a, b, c):
    g = GROUPS[name]
    a, b, c = a % g.order, b % g.order, c % g.order
    assert g.table[g.table[a, b], c] == g.table[a, g.table[b, c]]
    assert g.table[a, g.inverses[a]] == g.identity
    assert g.table[g.identity, a] == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["radical_c4", "opposite:S3", "trivial:D4",
                        "opposite:D4", "prod:radical_c4,radical_c4"]),
       st.integers(min_value=0), st.integers(min_value=0),
       st.integers(min_value=0))
def test_brace_compatibility_pointwise(name, a, b, c):
    _, brace = hb.lookup(name)
    n = brace.order
    a, b, c = a % n, b % n, c % n
    d, o = brace.dot, brace.circ
    assert o.table[a, d.table[b, c]] == d.table[
        d.table[o.table[a, b], d.inverses[a]], o.table[a, c]]
    # the action is determined by both products
    assert brace.lambda_table[a, b] == d.table[d.inverses[a], o.table[a, b]]


# ------------------------------------------- differential: mask kernel

def _catalog_groups():
    """Every distinct dot or circ group of the catalog (orders 2-48)."""
    groups = {}
    for desc, brace in hb.builtin_catalog():
        for part, g in (("dot", brace.dot), ("circ", brace.circ)):
            groups.setdefault(g, f"{desc.name}/{part}")
    return {name: g for g, name in groups.items()}


CATALOG_GROUPS = _catalog_groups()


@lru_cache(maxsize=None)
def _rows(name):
    return CATALOG_GROUPS[name].table.tolist()


catalog_group_and_subset = st.sampled_from(sorted(CATALOG_GROUPS)).flatmap(
    lambda name: st.tuples(
        st.just(name),
        st.lists(st.integers(min_value=0,
                             max_value=CATALOG_GROUPS[name].order - 1),
                 max_size=6)))


@settings(max_examples=150, deadline=None)
@given(catalog_group_and_subset)
def test_closures_match_the_oracle(named):
    name, gens = named
    g, rows = CATALOG_GROUPS[name], _rows(name)
    assert carrier(g.subgroup_generated(gens)) == tuple(sorted(
        oracle.closure(rows, gens)))
    assert carrier(g.normal_closure(gens)) == tuple(sorted(
        oracle.normal_closure(rows, gens)))
    assert carrier(g.subgroup_generated(set(gens))) \
        == carrier(g.subgroup_generated(gens))


@settings(max_examples=150, deadline=None)
@given(catalog_group_and_subset,
       st.sampled_from(["raw", "closure", "closure+1", "closure-1"]),
       st.integers(min_value=0))
def test_subgroup_predicates_match_set_loops(named, shape, k):
    """Random subsets, subgroups, and subgroups with one element added
    or taken away."""
    name, elems = named
    g, rows = CATALOG_GROUPS[name], _rows(name)
    s = set(elems)
    if shape != "raw":
        s = set(oracle.closure(rows, elems))
        if shape == "closure+1":
            s.add(k % g.order)
        elif shape == "closure-1":
            s.discard(sorted(s)[k % len(s)])
    assert g.is_subgroup(s) == oracle.is_subgroup(rows, s)
    assert g.is_normal(s) == oracle.is_normal(rows, s)
    assert g.is_subgroup(sorted(s)) == g.is_subgroup(s)


@settings(max_examples=80, deadline=None)
@given(catalog_group_and_subset)
def test_quotient_matches_the_coset_construction(named):
    name, gens = named
    g, rows = CATALOG_GROUPS[name], _rows(name)
    normal = carrier(g.normal_closure(gens))
    q, proj = group_quotient(g, normal)
    table, expected_proj = oracle.quotient_by_cosets(rows, normal)
    assert q.table.tolist() == table
    assert list(proj) == expected_proj


def test_center_and_conjugation_table_match_the_oracle():
    for name, g in CATALOG_GROUPS.items():
        rows = _rows(name)
        inv = oracle.inverses_of(rows)
        assert carrier(g.center()) == tuple(sorted(oracle.center(rows))), name
        assert g.conj_table.tolist() == [
            [rows[rows[a][x]][inv[a]] for x in range(g.order)]
            for a in range(g.order)], name
        assert not g.conj_table.flags.writeable
