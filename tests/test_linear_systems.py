"""The socle, annihilator, star-trivial and coincidence systems against
the constructions they replaced: per-h fiber loops that keep duplicate
rows, and coincidence rows built by a triple loop over (h, x, g), all
solved by the dict-of-Fraction reference solver in ``reference_linalg``.
Tier-1 runs them on the catalog, a few hand-built braces and a fixed
sample of ``tests/corpus.py``; the whole corpus and the order-96 braces
run under ``pytest -m slow``.
"""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import hopfbrace as hb
import hopfbrace.series as series
import reference_linalg as ref
from hopfbrace.hopf import Element
from hopfbrace.linalg import (Subspace, common_nullspace, indicator,
                              span_of_indices)
from hopfbrace.skewbrace import validate_skew_brace


def fiber_loop_rows(value, domain, n, skip):
    """For each h, one row per fiber of g -> value(g, h) over ``domain``
    except the fiber of value ``skip(h)``; duplicates are kept."""
    rows = []
    for h in range(n):
        fibers = {}
        for g in domain:
            fibers.setdefault(value(g, h), []).append(g)
        for x, fiber in fibers.items():
            if x != skip(h):
                rows.append(Element({g: 1 for g in fiber}))
    return rows


def reference_socle_spaces(H):
    base, n, e = H.base, H.dim, H.base.identity
    center = np.flatnonzero(base.dot.center()).tolist()
    st = base.star_table
    outside = [Element({g: 1}) for g in range(n) if g not in center]
    soc_rows = outside + fiber_loop_rows(
        lambda g, h: int(st[g, h]), center, n, lambda h: e)
    ann_rows = soc_rows + fiber_loop_rows(
        lambda g, h: int(st[h, g]), center, n, lambda h: e)
    return ref.common_nullspace(soc_rows, n), ref.common_nullspace(ann_rows, n)


def reference_coincidence(H):
    """(star-trivial space, coincidence space, both separators)."""
    base, n = H.base, H.dim
    lam, d, o = base.lambda_table, base.dot.table, base.circ.table
    star_space = ref.common_nullspace(fiber_loop_rows(
        lambda g, h: int(lam[g, h]), range(n), n, lambda h: h), n)
    coin_rows = []
    for h in range(n):
        for x in range(n):
            entries = {}
            for g in range(n):
                if int(d[g, h]) == x:
                    entries[g] = entries.get(g, 0) + 1
                if int(o[g, h]) == x:
                    entries[g] = entries.get(g, 0) - 1
            if any(entries.values()):
                coin_rows.append(Element(entries))
    coin_space = ref.common_nullspace(coin_rows, n)
    sep_star = next((r for r in star_space.rows
                     if not ref.contains(coin_space, r)), None)
    sep_coin = next((r for r in coin_space.rows
                     if not ref.contains(star_space, r)), None)
    return star_space, coin_space, sep_star, sep_coin


def probed_group_likes(space):
    """{g : e_g in space}, one ``contains`` probe per g."""
    return tuple(g for g in range(space.ambient)
                 if space.contains(indicator([g])))


def assert_read_off_matches_probes(*spaces):
    """``_check_group_likes`` reads the group-likes off each space's rows;
    it must accept the probed ones as the carriers."""
    for space in spaces:
        carrier = SimpleNamespace(carrier=probed_group_likes(space))
        series._check_group_likes(SimpleNamespace(
            socle=carrier, socle_space=space,
            annihilator=carrier, annihilator_space=space))


def assert_matches_reference(H):
    soc = hb.socle_annihilator(H)
    assert (soc.socle_space, soc.annihilator_space) \
        == reference_socle_spaces(H)
    assert soc.socle.carrier == probed_group_likes(soc.socle_space)
    assert soc.annihilator.carrier \
        == probed_group_likes(soc.annihilator_space)
    # the embedded rows are filled in without normalising
    for r in soc.socle_space.rows + soc.annihilator_space.rows:
        assert r == Element._make(dict(r.nums), r.den, 0)
    rep = hb.coincidence_report(H)
    assert (rep.star_trivial_space, rep.coincidence_space,
            rep.separator_star_only, rep.separator_coincidence_only) \
        == reference_coincidence(H)
    assert_read_off_matches_probes(rep.star_trivial_space,
                                   rep.coincidence_space)


def test_spaces_and_separators_match_the_reference(catalog):
    for desc, brace in catalog:
        assert_matches_reference(hb.HopfBrace(brace))


def factorization_brace(G, A, B):
    """The skew brace of an exact factorization G = AB (A and B subgroups
    meeting in the identity; Guarnieri-Vendramin 2017): x o y = a.y.b for
    x = a.b."""
    t = G.table
    circ = np.empty_like(t)
    for a in A:
        for b in B:
            circ[t[a, b]] = t[t[a], b]
    return validate_skew_brace(t, circ, identity=G.identity)


def test_exact_factorization_brace_matches_the_reference():
    """S4 = S3.C4, with S3 the stabiliser of 0 (the first six permutations
    in sorted order) and C4 generated by the 4-cycle 0->2->1->3->0.  Its
    coincidence orbits take three min-label steps to settle, where every
    catalog brace takes at most one."""
    G = hb.symmetric_group(4)
    c4 = np.flatnonzero(G.subgroup_generated([17]))   # 17 is (2, 3, 1, 0)
    assert len(c4) == 4
    assert_matches_reference(hb.HopfBrace(
        factorization_brace(G, range(6), c4)))


def test_brace_with_a_smaller_annihilator_matches_the_reference():
    """Every catalog brace has Ann = Soc.  Here (G, .) = C2^3 = <u, v, w>
    with elements u + 2v + 4w, a o b = a + lambda_a(b), and lambda_a the
    transvection v -> v + u when a has a w-component, else the identity:
    Soc = <u, v>, but v is moved, so Ann = <u>."""
    g = np.arange(8)
    transvection = g ^ ((g >> 1) & 1)
    lam = np.where((g >> 2)[:, None] & 1, transvection, g)
    brace = validate_skew_brace(g[:, None] ^ g, g[:, None] ^ lam, identity=0)
    H = hb.HopfBrace(brace)
    soc = hb.socle_annihilator(H)
    assert (soc.socle.carrier, soc.annihilator.carrier) == ((0, 1, 2, 3),
                                                           (0, 1))
    assert soc.socle_space != soc.annihilator_space
    assert_matches_reference(H)
    # Soc*H is trivial and the dot group abelian: only the circ
    # commutators give [Soc, H]
    assert hb.huq_commutator(soc.socle, H).carrier == (0, 1)


ORDER_96 = {
    "opposite:D48": lambda: hb.opposite_brace(hb.dihedral_group(48)),
    "opposite:S4*trivial:C4": lambda: hb.direct_product(
        hb.opposite_brace(hb.symmetric_group(4)),
        hb.trivial_brace(hb.cyclic_group(4))),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ORDER_96))
def test_order_96_spaces_match_the_reference(name):
    assert_matches_reference(hb.HopfBrace(ORDER_96[name]()))


# Every corpus brace of orders 2-7, 9 and 10, and fixed ones of orders 8
# and 12 by their index in ``corpus.braces``: at order 8, Ann != Soc at 1
# (C8) and 38 (C2^3), orbits of two or three min-label steps at 11, 26
# (C4xC2) and 80 (C2^3), and the first D4 and Q8 braces; at order 12,
# Ann != Soc at 3 (C12, two steps) and 8 (C6xC2), three steps at 22 (A4),
# the first D6 brace, and two steps at 104 (Dic3).
CORPUS_SAMPLE = {**dict.fromkeys((2, 3, 4, 5, 6, 7, 9, 10)),
                 8: (1, 11, 26, 38, 80, 266, 286), 12: (3, 8, 22, 60, 104)}


def corpus_braces(order, picks=None):
    braces = corpus.braces(order)
    for i in range(len(braces)) if picks is None else picks:
        _, dot, circ = braces[i]
        yield hb.HopfBrace(validate_skew_brace(dot, circ))


def min_label_steps(H):
    """Rounds of g -> the least label over g and every g' with
    g' o h = g.h, from label[g] = g, until no label changes."""
    d, o, n = H.base.dot.table.tolist(), H.base.circ.table.tolist(), H.dim
    where = [{o[g][h]: g for g in range(n)} for h in range(n)]
    moves = [[where[h][d[g][h]] for h in range(n)] for g in range(n)]
    label, steps = list(range(n)), 0
    while (nxt := [min(label[m] for m in moves[g]) for g in range(n)]) != label:
        label, steps = nxt, steps + 1
    return steps


@pytest.mark.parametrize("order", sorted(CORPUS_SAMPLE))
def test_corpus_sample_matches_the_reference(order):
    for H in corpus_braces(order, CORPUS_SAMPLE[order]):
        assert_matches_reference(H)


def test_corpus_sample_has_every_kind():
    """At least one brace with Ann != Soc, one with a socle or
    annihilator space larger than its group-like span, and one whose
    orbits take more than one min-label step."""
    kinds = {"ann != soc": 0, "strict": 0, "steps > 1": 0}
    for order, picks in CORPUS_SAMPLE.items():
        for H in corpus_braces(order, picks):
            soc = hb.socle_annihilator(H)
            kinds["ann != soc"] += soc.socle != soc.annihilator
            kinds["strict"] += soc.socle_strict or soc.annihilator_strict
            kinds["steps > 1"] += min_label_steps(H) > 1
    assert all(kinds.values()), kinds


@pytest.mark.slow
@pytest.mark.parametrize("order", sorted(corpus.GROUPS))
def test_corpus_matches_the_reference(order):
    for H in corpus_braces(order):
        assert_matches_reference(H)


def test_fiber_rows_are_the_distinct_loop_rows_sorted(catalog):
    for desc, brace in catalog:
        n, lam = brace.order, brace.lambda_table
        domain = list(range(n))
        rows = [tuple(sorted(r.coeffs))
                for r in series._fiber_rows(lam, np.arange(n))]
        loop = fiber_loop_rows(lambda g, h: int(lam[g, h]), domain, n,
                               lambda h: h)
        assert rows == sorted(set(rows))
        assert set(rows) == {tuple(sorted(r.coeffs)) for r in loop}


# ------------------------------------------------- group-like cross-check

def test_equal_dimensions_still_get_separators(by_name):
    """The star-trivial and coincidence spaces of these braces have equal
    dimensions but differ, so each has a separator."""
    for name in ("opposite:D4", "radical_c4"):
        rep = hb.coincidence_report(hb.HopfBrace(by_name[name][1]))
        assert rep.star_trivial_space.dim == rep.coincidence_space.dim
        assert rep.star_trivial_space != rep.coincidence_space
        assert rep.separator_star_only is not None
        assert rep.separator_coincidence_only is not None
        assert not rep.equivalent


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=-2, max_value=2), max_size=3), max_size=6))))
def test_read_off_group_likes_match_probes(system):
    """On the row space and the null space of small integer systems, whose
    rows are often unit vectors."""
    n, rows = system
    rows = [Element(r) for r in rows]
    assert_read_off_matches_probes(Subspace.row_space(rows, n),
                                   common_nullspace(rows, n))


def test_read_off_takes_only_exact_unit_rows(radical_c4):
    """A row 2 e_g or e_g / 2 is not e_g: the read-off, like ``contains``,
    takes the rows as the canonical basis, so it finds no group-like in a
    space given by such rows."""
    scaled = Subspace(4, (Element({0: 2}), Element({2: Fraction(1, 2)})))
    assert probed_group_likes(scaled) == ()
    assert_read_off_matches_probes(scaled)
    soc = hb.socle_annihilator(hb.HopfBrace(radical_c4))
    with pytest.raises(hb.CrossCheckError, match="socle"):
        series._check_group_likes(replace(soc, socle_space=scaled))


def test_tampered_socle_data_is_refused(radical_c4):
    H = hb.HopfBrace(radical_c4)
    soc = hb.socle_annihilator(H)
    assert soc.socle.carrier == (0, 2)
    with pytest.raises(hb.CrossCheckError, match="socle"):
        series._check_group_likes(replace(soc, socle=hb.Subbrace(H, [0])))
    with pytest.raises(hb.CrossCheckError, match="annihilator"):
        series._check_group_likes(
            replace(soc, annihilator_space=span_of_indices(range(4), 4)))


def test_dropped_fiber_rows_are_caught(radical_c4, monkeypatch):
    """Without its fiber rows the socle space is the span of the center,
    whose group-likes are all of C4, not the socle carrier (0, 2)."""
    monkeypatch.setattr(series, "_fiber_rows", lambda *args: [])
    with pytest.raises(hb.CrossCheckError, match="socle"):
        hb.socle_annihilator(hb.HopfBrace(radical_c4))
