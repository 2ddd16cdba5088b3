import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfbrace as hb
import oracle
from hopfbrace.skewbrace import _generating_set


def test_validate_trivial_c2():
    t = [[0, 1], [1, 0]]
    b = hb.validate_skew_brace(t, t)
    assert b.order == 2 and b.is_trivial()


def test_validate_radical_c4_exhaustively_checked():
    dot, circ = oracle.radical_c4_tables()
    b = hb.validate_skew_brace(dot, circ)
    assert b.order == 4
    assert oracle.is_skew_brace(dot, circ)


def test_identity_mismatch_reported():
    dot = oracle.cyclic_table(4)
    with pytest.raises(hb.IdentityMismatchError):
        hb.validate_skew_brace(dot, dot, identity=1)


def test_not_a_group_names_failing_row():
    bad = [[0, 1], [0, 1]]
    with pytest.raises(hb.NotAGroupError):
        hb.validate_skew_brace(bad, bad)


def test_single_entry_mutation_gives_witnessed_group_failure():
    dot, circ = oracle.radical_c4_tables()
    circ = [row[:] for row in circ]
    circ[1][1] = circ[1][0]        # no longer a Latin square
    with pytest.raises(hb.NotAGroupError) as info:
        hb.validate_skew_brace(dot, circ)
    assert info.value.witness is not None


# C4 relabeled through the transposition (2 3): both tables are valid
# groups sharing identity 0, but the compatibility law fails
INCOMPATIBLE_CIRC = [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 2, 1, 0]]


def test_compatibility_violation_carries_triple():
    dot = oracle.cyclic_table(4)
    assert oracle.is_group(INCOMPATIBLE_CIRC)
    with pytest.raises(hb.CompatibilityError) as info:
        hb.validate_skew_brace(dot, INCOMPATIBLE_CIRC)
    assert info.value.witness == (1, 1, 1)


def test_lambda_examples(radical_c4):
    assert radical_c4.lambda_act(1, 1) == 3
    assert all(radical_c4.lambda_act(2, b) == b for b in range(4))
    triv = hb.trivial_brace(hb.symmetric_group(3))
    assert all(triv.lambda_act(a, b) == b for a in range(6) for b in range(6))


def test_lambda_is_automorphism_and_homomorphic(radical_c4, opp_s3):
    for brace in (radical_c4, opp_s3):
        n = brace.order
        for a in range(n):
            seen = {brace.lambda_act(a, b) for b in range(n)}
            assert seen == set(range(n))
            for x in range(n):
                for y in range(n):
                    assert (brace.lambda_act(a, brace.dot.mul(x, y))
                            == brace.dot.mul(brace.lambda_act(a, x),
                                             brace.lambda_act(a, y)))
        for a in range(n):
            for b in range(n):
                ab = brace.circ.mul(a, b)
                for x in range(n):
                    assert (brace.lambda_act(ab, x)
                            == brace.lambda_act(a, brace.lambda_act(b, x)))


def test_star_examples(radical_c4, opp_s3):
    assert radical_c4.star_set(1, 1) == 2
    triv = hb.trivial_brace(hb.cyclic_group(4))
    assert all(triv.star_set(a, b) == 0 for a in range(4) for b in range(4))
    # opposite brace: a*b = a^-1 . b . a . b^-1, image generates A3
    g = opp_s3.dot
    for a in range(6):
        for b in range(6):
            expected = g.mul(g.mul(g.mul(g.inv(a), b), a), g.inv(b))
            assert opp_s3.star_set(a, b) == expected
    assert g.subgroup_generated(opp_s3.star_image()) == (0, 3, 4)


def test_star_two_computations_agree(catalog):
    for desc, brace in catalog:
        g = brace.dot
        for a in range(brace.order):
            for b in range(brace.order):
                via_lambda = g.mul(brace.lambda_act(a, b), g.inv(b))
                via_circ = g.mul(g.mul(g.inv(a), brace.circ.mul(a, b)),
                                 g.inv(b))
                assert via_lambda == via_circ == brace.star_set(a, b)


def test_circ_decomposes_through_lambda(catalog):
    for desc, brace in catalog:
        for a in range(brace.order):
            for b in range(brace.order):
                assert (brace.circ.mul(a, b)
                        == brace.dot.mul(a, brace.lambda_act(a, b)))


def test_subgroup_generated():
    s3 = hb.symmetric_group(3)
    assert s3.subgroup_generated([3]) == (0, 3, 4)
    assert s3.subgroup_generated([]) == (0,)
    c4 = hb.cyclic_group(4)
    assert c4.subgroup_generated([2]) == (0, 2)
    sub = s3.subgroup_generated([1, 3])
    assert s3.subgroup_generated(sub) == sub


def test_normal_closure():
    s3 = hb.symmetric_group(3)
    assert s3.normal_closure([1]) == tuple(range(6))
    c4 = hb.cyclic_group(4)
    assert c4.normal_closure([2]) == c4.subgroup_generated([2])
    assert s3.normal_closure([]) == (0,)


def test_center():
    assert hb.symmetric_group(3).center() == (0,)
    assert hb.cyclic_group(5).center() == (0, 1, 2, 3, 4)
    assert len(hb.dihedral_group(4).center()) == 2


def test_quotient_group():
    c4 = hb.cyclic_group(4)
    q, proj = c4.quotient((0, 2))
    assert q.order == 2
    assert [proj[g] for g in range(4)] == [0, 1, 0, 1]
    # projection composed with a section of coset representatives is the
    # identity on cosets
    section = {}
    for g in range(4):
        section.setdefault(proj[g], g)
    assert all(proj[section[i]] == i for i in range(q.order))
    qq, _ = c4.quotient((0,))
    assert qq == c4
    q1, _ = c4.quotient((0, 1, 2, 3))
    assert q1.order == 1
    s3 = hb.symmetric_group(3)
    with pytest.raises(hb.ValidationError):
        s3.quotient((0, 1))


def test_morphism_validation(radical_c4):
    c2 = hb.trivial_brace(hb.cyclic_group(2))
    f = hb.BraceMap(radical_c4, c2, [0, 1, 0, 1])
    assert f.kernel_set() == (0, 2)
    assert f.is_surjective()
    triv = hb.trivial_brace(hb.symmetric_group(3))
    ident = hb.BraceMap(triv, triv, list(range(6)))
    assert ident.kernel_set() == (0,)
    zero = hb.BraceMap(triv, triv, [0] * 6)
    assert zero.kernel_set() == tuple(range(6))
    with pytest.raises(hb.MorphismError):
        hb.BraceMap(radical_c4, c2, [0, 1, 1, 0])


def test_opposite_brace_is_valid_for_every_catalog_group():
    for g in (hb.symmetric_group(3), hb.dihedral_group(4),
              hb.symmetric_group(4)):
        b = hb.opposite_brace(g)
        assert b.order == g.order


def test_direct_product_componentwise_star(radical_c4):
    prod = hb.direct_product(radical_c4, radical_c4)
    assert prod.order == 16
    n2 = 4
    for a in (0, 1, 5, 7, 12, 15):
        for b in (0, 2, 3, 9, 14):
            a1, a2 = divmod(a, n2)
            b1, b2 = divmod(b, n2)
            expected = (radical_c4.star_set(a1, b1) * n2
                        + radical_c4.star_set(a2, b2))
            assert prod.star_set(a, b) == expected


def test_order_cap_guard():
    with pytest.raises(hb.ValidationError):
        hb.cyclic_group(201)


def test_constructed_groups_match_oracle_tables():
    assert (hb.symmetric_group(3).table
            == np.array(oracle.symmetric_table(3)[0])).all()
    assert (hb.dihedral_group(4).table == np.array(oracle.dihedral_table(4))).all()
    assert (hb.cyclic_group(6).table == np.array(oracle.cyclic_table(6))).all()


def test_all_subgroups_counts():
    assert len(hb.cyclic_group(4).all_subgroups()) == 3
    assert len(hb.symmetric_group(3).all_subgroups()) == 6
    assert len(hb.dihedral_group(4).all_subgroups()) == 10
    assert len(hb.symmetric_group(4).all_subgroups()) == 30


@pytest.mark.parametrize("table", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[0, 1.5], [1, 0]],
    [[False, True], [True, False]],
    [["0", "1"], ["1", "0"]],
])
def test_non_integer_tables_are_refused_not_truncated(table):
    with pytest.raises(hb.ValidationError) as info:
        hb.FiniteGroup(np.array(table))
    assert "integers" in str(info.value)


# ------------------------------------- differential test against the oracle

SMALL_GROUPS = ([oracle.cyclic_table(n) for n in range(1, 7)]
                + [oracle.symmetric_table(3)[0],
                   oracle.product_table(oracle.cyclic_table(2),
                                        oracle.cyclic_table(2))])


def relabel(table, p):
    """The table with element a renamed p[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[table[a][b]]
    return out


@st.composite
def table_pairs(draw):
    """A dot table that is a relabelled group, a Latin square (an isotope
    of one, associative or not), a group with one entry changed, or random
    entries; and a circ table that is the trivial or opposite product, a
    relabelled group of the same order sharing the dot's identity when the
    dot is a group, or another draw of the same kinds."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    n = len(group)
    index = st.integers(0, n - 1)

    def table(p):
        kind = draw(st.sampled_from(
            ("group", "group", "isotope", "perturbed", "random")))
        if kind == "random":
            row = st.lists(index, min_size=n, max_size=n)
            return draw(st.lists(row, min_size=n, max_size=n))
        t = relabel(group, p)
        if kind == "isotope":
            rows = draw(st.permutations(range(n)))
            cols = draw(st.permutations(range(n)))
            t = [[t[rows[a]][cols[b]] for b in range(n)] for a in range(n)]
        elif kind == "perturbed":
            t[draw(index)][draw(index)] = draw(index)
        return t

    p = draw(st.permutations(range(n)))
    dot = table(p)
    kind = draw(st.sampled_from(
        ("trivial", "opposite", "group", "group", "group", "other")))
    if kind == "trivial":
        return dot, [row[:] for row in dot]
    if kind == "opposite":
        return dot, [list(col) for col in zip(*dot)]
    if kind == "group":
        other = draw(st.sampled_from([g for g in SMALL_GROUPS if len(g) == n]))
        q = list(draw(st.permutations(range(n))))
        i = q.index(p[0])
        q[0], q[i] = q[i], q[0]              # identity 0 goes where p sends it
        return dot, relabel(other, q)
    return dot, table(draw(st.permutations(range(n))))


def first_failure(n, fails):
    """The lexicographically first (a, b, c) with fails(a, b, c), by a plain
    triple loop."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if fails(a, b, c):
                    return a, b, c
    return None


def group_failure(t):
    """The message and witness a non-group table must be rejected with."""
    n = len(t)
    for a in range(n):
        for kind, line in (("row", t[a]), ("column", [r[a] for r in t])):
            if sorted(line) != list(range(n)):
                return (f"{kind} {a} is not a permutation (not a Latin square)",
                        (a,))
    triple = first_failure(n, lambda a, b, c: t[t[a][b]][c] != t[a][t[b][c]])
    return f"associativity fails at triple {triple}", triple


@settings(max_examples=500, deadline=None)
@given(table_pairs())
def test_validator_agrees_with_oracle_and_plain_sweep(pair):
    dot, circ = pair
    valid = oracle.is_skew_brace(dot, circ)
    try:
        hb.validate_skew_brace(dot, circ)
    except hb.ValidationError as exc:
        got = type(exc), str(exc), exc.witness
    else:
        got = None
    assert (got is None) == valid
    if valid:
        return
    for t in (dot, circ):
        if not oracle.is_group(t):
            message, witness = group_failure(t)
            assert got == (hb.NotAGroupError, message, witness)
            return
    if oracle.identity_of(dot) != oracle.identity_of(circ):
        assert got[0] is hb.IdentityMismatchError
        return
    inv = oracle.inverses_of(dot)
    triple = first_failure(len(dot), lambda a, b, c: (
        circ[a][dot[b][c]] != dot[dot[circ[a][b]][inv[a]]][circ[a][c]]))
    assert got == (hb.CompatibilityError,
                   f"compatibility fails at triple {triple}", triple)


# x.y = s(x) + y mod 4 for the permutation s = [1, 2, 0, 3] of Z/4: a Latin
# square, associative only when s is a translation.  The greedy set is
# S = [0, 3] (0*0 = 1, 1*0 = 2, 2*0 = 0 reach {0, 1, 2}; 3 is added) and the
# first bad triple (0, 1, 0) has its middle outside S.
SHIFTED_Z4 = [[(s + y) % 4 for y in range(4)] for s in (1, 2, 0, 3)]


def test_light_test_rejects_when_first_bad_middle_is_outside_generators():
    t, n = SHIFTED_Z4, len(SHIFTED_Z4)
    gens = _generating_set(np.array(t))
    assert gens == [0, 3]
    bad = [(x, g, y) for x in range(n) for g in range(n) for y in range(n)
           if t[t[x][g]][y] != t[x][t[g][y]]]
    assert bad[0] == (0, 1, 0) and 1 not in gens
    # Light's test: the passing middles are closed under products, so some
    # middle in a generating set must fail whenever any triple fails
    assert any(g in gens for _, g, _ in bad)
    with pytest.raises(hb.NotAGroupError) as info:
        hb.FiniteGroup(t)
    assert info.value.witness == (0, 1, 0)
    assert str(info.value) == "associativity fails at triple (0, 1, 0)"


def test_validating_order_192_allocates_no_cubic_array():
    brace = hb.direct_product(
        hb.direct_product(hb.opposite_brace(hb.symmetric_group(4)),
                          hb.radical_c4_brace()),
        hb.trivial_brace(hb.cyclic_group(2)))
    assert brace.order == 192
    cubic_mb = 192 ** 3 * 8 / 1e6                # one int64 array: 56.6 MB
    tracemalloc.start()
    try:
        hb.validate_skew_brace(brace.dot.table, brace.circ.table)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb < 20 < cubic_mb
