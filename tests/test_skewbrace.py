import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import hopfbrace as hb
import oracle
from hopfbrace.skewbrace import _first_bad_tuple, _generating_set
from test_ladder import LADDER


def carrier(mask):
    """A carrier mask's indices, as the sorted tuple of the API edge."""
    return tuple(np.flatnonzero(mask).tolist())


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
    for identity in (0.0, False, True, np.float64(0)):
        with pytest.raises(TypeError):
            hb.validate_skew_brace(dot, dot, identity=identity)


def test_not_a_group_names_failing_row():
    bad = [[0, 1], [0, 1]]
    with pytest.raises(hb.NotAGroupError):
        hb.validate_skew_brace(bad, bad)
    for entry in (2, -1):       # outside [0, n): the Latin check names it
        with pytest.raises(hb.NotAGroupError, match="row 1 ") as info:
            hb.FiniteGroup([[0, 1], [1, entry]])
        assert info.value.witness == (1,)


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
    assert radical_c4.lambda_table[1, 1] == 3
    assert all(radical_c4.lambda_table[2, b] == b for b in range(4))
    triv = hb.trivial_brace(hb.symmetric_group(3))
    assert all(triv.lambda_table[a, b] == b for a in range(6) for b in range(6))


def test_lambda_is_automorphism_and_homomorphic(radical_c4, opp_s3):
    for brace in (radical_c4, opp_s3):
        n = brace.order
        for a in range(n):
            seen = {brace.lambda_table[a, b] for b in range(n)}
            assert seen == set(range(n))
            for x in range(n):
                for y in range(n):
                    assert (brace.lambda_table[a, brace.dot.table[x, y]]
                            == brace.dot.table[brace.lambda_table[a, x],
                                               brace.lambda_table[a, y]])
        for a in range(n):
            for b in range(n):
                ab = brace.circ.table[a, b]
                for x in range(n):
                    assert (brace.lambda_table[ab, x]
                            == brace.lambda_table[a, brace.lambda_table[b, x]])


def test_star_examples(radical_c4, opp_s3):
    assert radical_c4.star_table[1, 1] == 2
    triv = hb.trivial_brace(hb.cyclic_group(4))
    assert all(triv.star_table[a, b] == 0 for a in range(4) for b in range(4))
    # opposite brace: a*b = a^-1 . b . a . b^-1, image generates A3
    g = opp_s3.dot
    for a in range(6):
        for b in range(6):
            expected = g.table[g.table[g.table[g.inverses[a], b], a],
                               g.inverses[b]]
            assert opp_s3.star_table[a, b] == expected
    assert carrier(g.subgroup_generated(np.unique(opp_s3.star_table))) \
        == (0, 3, 4)


def test_star_two_computations_agree(catalog):
    for desc, brace in catalog:
        g = brace.dot
        for a in range(brace.order):
            for b in range(brace.order):
                via_lambda = g.table[brace.lambda_table[a, b], g.inverses[b]]
                via_circ = g.table[
                    g.table[g.inverses[a], brace.circ.table[a, b]],
                    g.inverses[b]]
                assert via_lambda == via_circ == brace.star_table[a, b]


def test_circ_decomposes_through_lambda(catalog):
    for desc, brace in catalog:
        for a in range(brace.order):
            for b in range(brace.order):
                assert (brace.circ.table[a, b]
                        == brace.dot.table[a, brace.lambda_table[a, b]])


def test_subgroup_generated():
    s3 = hb.symmetric_group(3)
    assert carrier(s3.subgroup_generated([3])) == (0, 3, 4)
    assert carrier(s3.subgroup_generated([])) == (0,)
    c4 = hb.cyclic_group(4)
    assert carrier(c4.subgroup_generated([2])) == (0, 2)
    sub = carrier(s3.subgroup_generated([1, 3]))
    assert carrier(s3.subgroup_generated(sub)) == sub


def test_normal_closure():
    s3 = hb.symmetric_group(3)
    assert carrier(s3.normal_closure([1])) == tuple(range(6))
    c4 = hb.cyclic_group(4)
    assert carrier(c4.normal_closure([2])) \
        == carrier(c4.subgroup_generated([2]))
    assert carrier(s3.normal_closure([])) == (0,)


@pytest.mark.parametrize("call", [
    lambda g: g.subgroup_generated([-1]),
    lambda g: g.subgroup_generated([1.0]),
    lambda g: g.is_subgroup([0, 6]),
    lambda g: g.is_subgroup([0, "3"]),
    lambda g: g.normal_closure([-5]),
    lambda g: g.normal_closure([3.5]),
    lambda g: g.mask([0, 2.9]),
], ids=["generated-negative", "generated-float", "subgroup-too-large",
        "subgroup-str", "closure-negative", "closure-float", "mask-float"])
def test_user_indices_are_refused_not_coerced(call):
    """A negative index would wrap and a float would be truncated."""
    with pytest.raises((TypeError, IndexError)):
        call(hb.symmetric_group(3))


def test_center():
    assert carrier(hb.symmetric_group(3).center()) == (0,)
    assert carrier(hb.cyclic_group(5).center()) == (0, 1, 2, 3, 4)
    assert len(carrier(hb.dihedral_group(4).center())) == 2


def group_quotient(g, carrier):
    """The quotient group g/N, as the dot group of the trivial brace's
    quotient, and its projection."""
    H = hb.HopfBrace(hb.trivial_brace(g))
    Q, pi = hb.quotient(H, hb.Subbrace(H, carrier))
    return Q.base.dot, pi.images


def test_quotient_group():
    c4 = hb.cyclic_group(4)
    q, proj = group_quotient(c4, (0, 2))
    assert q.order == 2
    assert [proj[g] for g in range(4)] == [0, 1, 0, 1]
    # projection composed with a section of coset representatives is the
    # identity on cosets
    section = {}
    for g in range(4):
        section.setdefault(proj[g], g)
    assert all(proj[section[i]] == i for i in range(q.order))
    qq, _ = group_quotient(c4, (0,))
    assert qq == c4
    q1, _ = group_quotient(c4, (0, 1, 2, 3))
    assert q1.order == 1
    s3 = hb.symmetric_group(3)
    with pytest.raises(hb.NormalityError):
        group_quotient(s3, (0, 1))


def test_morphism_validation(radical_c4):
    c2 = hb.trivial_brace(hb.cyclic_group(2))
    H, C2 = hb.HopfBrace(radical_c4), hb.HopfBrace(c2)
    f = hb.HopfMorphism(H, C2, [0, 1, 0, 1])
    assert carrier(f.kernel()) == (0, 2)
    assert f.is_surjective()
    triv = hb.HopfBrace(hb.trivial_brace(hb.symmetric_group(3)))
    ident = hb.HopfMorphism(triv, triv, list(range(6)))
    assert carrier(ident.kernel()) == (0,)
    zero = hb.HopfMorphism(triv, triv, [0] * 6)
    assert carrier(zero.kernel()) == tuple(range(6))
    with pytest.raises(hb.MorphismError):
        hb.BraceMap(radical_c4, c2, [0, 1, 1, 0])
    # f(e) = f(e)^2 forces f(e) = e: a moved identity fails at (e, e)
    with pytest.raises(hb.MorphismError, match="dot-homomorphism") as info:
        hb.BraceMap(radical_c4, c2, [1, 0, 1, 0])
    assert info.value.witness == (0, 0)


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
            expected = (radical_c4.star_table[a1, b1] * n2
                        + radical_c4.star_table[a2, b2])
            assert prod.star_table[a, b] == expected


def test_order_cap_guard():
    with pytest.raises(hb.ValidationError):
        hb.cyclic_group(201)


def test_constructed_groups_match_oracle_tables():
    """The numpy constructors build the tables of the oracle's Python
    formulas, at every size they accept."""
    for n in range(1, 5):
        assert hb.symmetric_group(n).table.tolist() == oracle.symmetric_table(n)[0]
    for n in range(1, 101):
        assert hb.dihedral_group(n).table.tolist() == oracle.dihedral_table(n), n
    assert (hb.cyclic_group(6).table == np.array(oracle.cyclic_table(6))).all()


@pytest.mark.parametrize("make, arg", [
    pytest.param(hb.FiniteGroup, [[0, 1], [1]], id="ragged-table"),
    pytest.param(hb.FiniteGroup, np.zeros((0, 0), int), id="empty-table"),
    (hb.cyclic_group, 0), (hb.cyclic_group, 2.0),
    (hb.dihedral_group, True), (hb.dihedral_group, 101),
    (hb.symmetric_group, -1), (hb.symmetric_group, 0), (hb.symmetric_group, 5),
    pytest.param(hb.FiniteGroup, np.zeros((201, 201), int),
                 id="table-above-cap"),
    pytest.param(hb.FiniteGroup, [[0, 2], [2, 0]], id="entries-out-of-range"),
    pytest.param(lambda groups: hb.skewbrace.product_group(*groups),
                 (hb.cyclic_group(15), hb.cyclic_group(14)),
                 id="product-above-cap"),
    pytest.param(lambda groups: hb.SkewBrace(*groups),
                 (hb.cyclic_group(2), hb.cyclic_group(3)),
                 id="brace-orders-differ"),
])
def test_constructors_refuse_bad_tables_and_sizes(make, arg):
    """A size is an integer, never a bool, that fits the order cap (S_n:
    n <= 4); a table a nonempty rectangular array.  Nothing else is
    coerced or escapes as a raw numpy error."""
    with pytest.raises(hb.ValidationError):
        make(arg)


def test_all_subgroups_counts():
    assert len(oracle.subgroups(hb.cyclic_group(4).table)) == 3
    assert len(oracle.subgroups(hb.symmetric_group(3).table)) == 6
    assert len(oracle.subgroups(hb.dihedral_group(4).table)) == 10
    assert len(oracle.subgroups(hb.symmetric_group(4).table)) == 30


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


@pytest.mark.parametrize("table", [
    [[0, True], [True, 0]],
    [[0, 1], [1, False]],
    ((0, np.True_), (np.True_, 0)),
], ids=["bools", "one-bool", "numpy-bools-in-tuples"])
def test_bools_in_row_tables_are_refused(table):
    """numpy reads rows of ints and bools as one int64 array, so each of
    these would be C2; rows are typed entry by entry, like indices."""
    for make in (hb.FiniteGroup, lambda t: hb.validate_skew_brace(t, t)):
        with pytest.raises(hb.ValidationError, match="integers, got bool"):
            make(table)


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


SMALL_BRACES = [
    (oracle.cyclic_table(4), oracle.cyclic_table(4)),
    oracle.radical_c4_tables(),
    oracle.opposite_tables(oracle.symmetric_table(3)[0]),
    oracle.trivial_tables(oracle.symmetric_table(3)[0]),
    oracle.opposite_tables(oracle.dihedral_table(4)),
    oracle.product_brace(*oracle.radical_c4_tables(),
                         *oracle.trivial_tables(oracle.cyclic_table(2))),
]


@st.composite
def tampered_circ(draw):
    """A small valid brace whose circ table is relabelled by a permutation
    fixing the identity: still a group with the dot's identity, and
    mostly incompatible with the dot."""
    dot, circ = draw(st.sampled_from(SMALL_BRACES))
    n = len(dot)
    q = [0, *draw(st.permutations(range(1, n)))]
    return dot, relabel(circ, q)


@settings(max_examples=500, deadline=None)
@given(st.one_of(table_pairs(), tampered_circ()))
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


# x.y = s(x) + y mod 5 for the permutation s = [1, 2, 0, 3, 4] of Z/5: a
# Latin square, associative only when s is a translation.  The greedy set
# is S = [0, 3] (0*0 = 1, 1*0 = 2, 2*0 = 0 reach {0, 1, 2}; 3 is added and
# reaches 4) and the first bad triple (0, 1, 0) has its middle outside S,
# while the first with its middle in S is (1, 0, 0): a witness read off
# the generators' rows would be the wrong triple.
SHIFTED_Z5 = [[(s + y) % 5 for y in range(5)] for s in (1, 2, 0, 3, 4)]


def test_light_test_rejects_when_first_bad_middle_is_outside_generators():
    t, n = SHIFTED_Z5, len(SHIFTED_Z5)
    gens = _generating_set(np.array(t))
    assert gens == [0, 3]
    bad = [(x, g, y) for x in range(n) for g in range(n) for y in range(n)
           if t[t[x][g]][y] != t[x][t[g][y]]]
    assert bad[0] == (0, 1, 0) and 1 not in gens
    # Light's test: the passing middles are closed under products, so some
    # middle in a generating set must fail whenever any triple fails
    assert next(b for b in bad if b[1] in gens) == (1, 0, 0)
    with pytest.raises(hb.NotAGroupError) as info:
        hb.FiniteGroup(t)
    assert info.value.witness == (0, 1, 0)
    assert str(info.value) == "associativity fails at triple (0, 1, 0)"


@settings(max_examples=300, deadline=None)
@given(arrays(bool, array_shapes(min_dims=1, max_dims=3, max_side=5)),
       st.booleans(), st.booleans())
def test_witness_is_the_first_argwhere_row(bad, clear, transpose):
    """On boolean arrays of one to three dimensions, all-false ones and
    transposed views among them."""
    if clear:
        bad[...] = False
    if transpose:
        bad = bad.T
    got = _first_bad_tuple(bad)
    if not bad.any():
        assert got is None
        return
    assert got == tuple(np.argwhere(bad)[0].tolist())
    assert {type(i) for i in got} == {int}


def test_the_witness_search_builds_no_array_of_the_hits():
    """``np.argwhere`` would build all 40,000 hits of this array, 640 kB
    of indices, to keep the first."""
    bad = np.ones((200, 200), dtype=bool)
    tracemalloc.start()
    try:
        assert _first_bad_tuple(bad) == (0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


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


def test_validating_the_order_192_ladder_brace_peaks_below_3_5_mib():
    """Light's test and the compatibility check sweep chunks of at most
    _BLOCK = 2^17 entries (three generators at a time at order 192), over
    a generating set without the identity, and the star table is left
    unbuilt: ~2.7 MiB, where one sweep over all six elements of S, the
    identity among them, and the star table held 4.8."""
    brace = LADDER["opposite:S4*radical_c4*trivial:C2"][0]()
    tracemalloc.start()
    try:
        hb.validate_skew_brace(brace.dot.table, brace.circ.table)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mib < 3.5
