"""Law-style property tests for the group layer, and differential tests
of the mask kernel against the brute-force oracle."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import hopfbrace as hb
import oracle

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
    sub = g.subgroup_generated(gens)
    assert g.is_subgroup(sub)
    assert g.subgroup_generated(sub) == sub
    assert set(gens) <= set(sub)


@settings(max_examples=80, deadline=None)
@given(group_and_subset)
def test_normal_closure_is_normal_and_minimal(gs):
    g, gens = gs
    closure = g.normal_closure(gens)
    assert g.is_normal(closure)
    assert set(g.subgroup_generated(gens)) <= set(closure)


@settings(max_examples=40, deadline=None)
@given(group_and_subset)
def test_quotient_projection_is_a_homomorphism(gs):
    g, gens = gs
    n_carrier = g.normal_closure(gens)
    q, proj = g.quotient(n_carrier)
    for a in range(g.order):
        for b in range(g.order):
            assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b])
    assert sorted(set(proj)) == list(range(q.order))
    assert q.order * len(n_carrier) == g.order


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GROUPS)),
       st.integers(min_value=0), st.integers(min_value=0),
       st.integers(min_value=0))
def test_group_axioms_pointwise(name, a, b, c):
    g = GROUPS[name]
    a, b, c = a % g.order, b % g.order, c % g.order
    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert g.mul(a, g.inv(a)) == g.identity
    assert g.mul(g.identity, a) == a


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
    assert o.mul(a, d.mul(b, c)) == d.mul(
        d.mul(o.mul(a, b), d.inv(a)), o.mul(a, c))
    # the action is determined by both products
    assert brace.lambda_act(a, b) == d.mul(d.inv(a), o.mul(a, b))


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


def _is_subgroup_by_loops(rows, s):
    e = oracle.identity_of(rows)
    inv = oracle.inverses_of(rows)
    return e in s and all(rows[a][b] in s and inv[a] in s
                          for a in s for b in s)


def _is_normal_by_loops(rows, s):
    inv = oracle.inverses_of(rows)
    return _is_subgroup_by_loops(rows, s) and all(
        rows[rows[a][x]][inv[a]] in s for a in range(len(rows)) for x in s)


@settings(max_examples=150, deadline=None)
@given(catalog_group_and_subset)
def test_closures_match_the_oracle(named):
    name, gens = named
    g, rows = CATALOG_GROUPS[name], _rows(name)
    assert g.subgroup_generated(gens) == tuple(sorted(
        oracle.closure(rows, gens)))
    assert g.normal_closure(gens) == tuple(sorted(
        oracle.normal_closure(rows, gens)))
    assert g.subgroup_generated(set(gens)) == g.subgroup_generated(gens)


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
    assert g.is_subgroup(s) == _is_subgroup_by_loops(rows, s)
    assert g.is_normal(s) == _is_normal_by_loops(rows, s)
    assert g.is_subgroup(sorted(s)) == g.is_subgroup(s)


def _quotient_by_cosets(rows, carrier):
    """Left cosets g N listed by least element, and their product table."""
    cosets = sorted({frozenset(rows[a][x] for x in carrier)
                     for a in range(len(rows))}, key=min)
    proj = [next(i for i, c in enumerate(cosets) if a in c)
            for a in range(len(rows))]
    reps = [min(c) for c in cosets]
    return [[proj[rows[a][b]] for b in reps] for a in reps], proj


@settings(max_examples=80, deadline=None)
@given(catalog_group_and_subset)
def test_quotient_matches_the_coset_construction(named):
    name, gens = named
    g, rows = CATALOG_GROUPS[name], _rows(name)
    carrier = g.normal_closure(gens)
    q, proj = g.quotient(carrier)
    table, expected_proj = _quotient_by_cosets(rows, carrier)
    assert q.table.tolist() == table
    assert proj == expected_proj


def test_center_and_conjugation_table_match_the_oracle():
    for name, g in CATALOG_GROUPS.items():
        rows = _rows(name)
        inv = oracle.inverses_of(rows)
        assert g.center() == tuple(sorted(oracle.center(rows))), name
        assert g.conj_table.tolist() == [
            [rows[rows[a][x]][inv[a]] for x in range(g.order)]
            for a in range(g.order)], name
        assert not g.conj_table.flags.writeable


def test_all_subgroups_match_the_oracle():
    for name, g in CATALOG_GROUPS.items():
        subs = g.all_subgroups()
        assert subs == sorted(subs, key=lambda s: (len(s), s))
        assert len(set(subs)) == len(subs), name
        oracle_subs = oracle.all_subgroups(_rows(name))
        assert set(map(frozenset, subs)) == oracle_subs, name
