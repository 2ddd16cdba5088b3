
import numpy as np
import pytest

import hopfbrace as hb
import oracle
from hopfbrace.hopf import Element
from hopfbrace.skewbrace import product_group, validate_skew_brace
from shared import corpus_braces
from test_linear_systems import factorization_brace


def H_of(brace):
    return hb.HopfBrace(brace)


# ----------------------------------------------------------------- series

def test_left_series_values(radical_c4, opp_s3, by_name):
    assert hb.left_series(H_of(radical_c4)).sizes() == [4, 2, 1]
    res = hb.left_series(H_of(opp_s3))
    assert res.sizes() == [6, 3, 3]
    assert res.stabilized and res.nil_class is None
    triv = hb.trivial_brace(hb.cyclic_group(2))
    assert hb.left_series(H_of(triv)).sizes() == [2, 1]
    # trivial brace on any group: the star product collapses immediately
    _, triv_s4 = by_name["trivial:S4"]
    assert hb.left_series(H_of(triv_s4)).sizes() == [24, 1]


def test_right_series_values(radical_c4, opp_s3):
    res = hb.right_series(H_of(radical_c4))
    assert res.sizes() == [4, 2, 1] and res.nil_class == 3
    assert hb.right_series(H_of(opp_s3)).sizes() == [6, 3, 3]
    triv = hb.trivial_brace(hb.cyclic_group(4))
    assert hb.right_series(H_of(triv)).sizes() == [4, 1]


def test_gamma_series_values(radical_c4, triv_s3, by_name):
    assert hb.gamma_series(H_of(radical_c4)).sizes() == [4, 2, 1]
    res = hb.gamma_series(H_of(triv_s3))
    assert res.sizes() == [6, 3, 3]
    assert res.terms[1].carrier == (0, 3, 4)
    triv_ab = hb.trivial_brace(hb.cyclic_group(6))
    assert hb.gamma_series(H_of(triv_ab)).sizes() == [6, 1]
    _, mixed = by_name["prod:radical_c4,trivial:S3"]
    assert hb.gamma_series(H_of(mixed)).sizes() == [24, 6, 3, 3]


def test_series_against_oracle(catalog):
    for desc, brace in catalog:
        if desc.order > 24:
            continue
        dot = brace.dot.table.tolist()
        circ = brace.circ.table.tolist()
        H = H_of(brace)
        assert [t.dim for t in hb.left_series(H).terms] \
            == [len(t) for t in oracle.left_series(dot, circ)]
        assert [t.dim for t in hb.right_series(H).terms] \
            == [len(t) for t in oracle.right_series(dot, circ)]
        assert [t.dim for t in hb.gamma_series(H).terms] \
            == [len(t) for t in oracle.gamma_series(dot, circ)]


def test_series_term_properties(catalog):
    for desc, brace in catalog:
        H = H_of(brace)
        for term in hb.left_series(H).terms:
            assert term.is_strong()
        right = hb.right_series(H)
        for k, term in enumerate(right.terms):
            assert term.is_normal() and term.is_normal_via_star()
            if k:
                assert right.terms[k - 1].contains(term)


def prime_factor_count(n):
    """Omega(n): the prime factors of n, counted with multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count


# Every corpus brace of orders 2-7, and fixed ones of orders 8 and 12 by
# their index in ``corpus.braces`` (those of test_generator_checks).
SERIES_SAMPLE = {**dict.fromkeys(range(2, 8)),
                 8: (0, 11, 26, 128, 266, 286), 12: (0, 22, 60, 88)}


def test_every_series_runs_to_its_end(catalog):
    """Each series descends until a term is trivial or repeats the one
    before, within Omega(n) + 1 terms; it is stabilized exactly when it
    ends on a repeat or H is trivial, and its nil class is its length when
    it ends on a trivial term."""
    braces = [H_of(hb.trivial_brace(hb.cyclic_group(1))),
              *(H_of(brace) for _, brace in catalog),
              *(H_of(brace) for order, picks in SERIES_SAMPLE.items()
                for brace in corpus_braces(order, picks))]
    for H in braces:
        for series in (hb.left_series, hb.right_series, hb.gamma_series):
            res = series(H)
            terms = res.terms
            assert len(terms) <= prime_factor_count(H.dim) + 1
            assert all(a.contains(b) for a, b in zip(terms, terms[1:]))
            assert all(a.carrier != b.carrier
                       for a, b in zip(terms, terms[1:-1]))
            repeat = len(terms) > 1 and terms[-1].carrier == terms[-2].carrier
            assert terms[-1].is_trivial() != repeat
            assert res.stabilized == (repeat or len(terms) == 1)
            assert res.nil_class == (None if repeat else len(terms))
    trivial = braces[0]
    for series in (hb.left_series, hb.right_series, hb.gamma_series):
        res = series(trivial)
        assert (res.sizes(), res.stabilized, res.nil_class) == ([1], True, 1)


# ------------------------------------------------------------ commutators

def test_relative_commutator_values(radical_c4, opp_s3):
    H = H_of(radical_c4)
    trivial = hb.generated_subbrace(H, [])
    assert hb.relative_commutator(trivial, H).carrier == (0,)
    assert hb.relative_commutator(hb.Subbrace(H, (0, 2)), H).carrier == (0,)
    Ho = H_of(opp_s3)
    assert hb.relative_commutator(hb.Subbrace(Ho, (0, 3, 4)), Ho).carrier \
        == (0, 3, 4)


def test_relative_commutator_requires_normal(triv_s3):
    Ht = H_of(triv_s3)
    sub = hb.generated_subbrace(Ht, [1])
    with pytest.raises(hb.NormalityError):
        hb.relative_commutator(sub, Ht)


def test_one_normality_guard(triv_s3, radical_c4):
    """quotient and both commutators refuse a non-normal subbrace and a
    subbrace of another brace with the same errors."""
    Ht = H_of(triv_s3)
    sub = hb.generated_subbrace(Ht, [1])
    foreign = hb.whole_subbrace(H_of(radical_c4))
    for op in (hb.quotient, lambda H, B: hb.relative_commutator(B, H),
               lambda H, B: hb.huq_commutator(B, H)):
        with pytest.raises(hb.NormalityError,
                           match=r"^carrier \(0, 1\) is not a normal subbrace$"):
            op(Ht, sub)
        with pytest.raises(ValueError, match="^subbrace does not belong"):
            op(Ht, foreign)


def test_huq_commutator_values(radical_c4, opp_s3, triv_s3):
    H = H_of(radical_c4)
    assert hb.huq_commutator(hb.whole_subbrace(H), H).carrier == (0, 2)
    Ht = H_of(triv_s3)
    assert hb.huq_commutator(hb.whole_subbrace(Ht), Ht).carrier == (0, 3, 4)
    Ho = H_of(opp_s3)
    assert hb.huq_commutator(hb.whole_subbrace(Ho), Ho).carrier == (0, 3, 4)


def test_gamma_equals_iterated_huq(catalog):
    for desc, brace in catalog:
        H = H_of(brace)
        res = hb.gamma_series(H)   # raises CrossCheckError on any mismatch
        for n in range(1, len(res.terms)):
            huq = hb.huq_commutator(res.terms[n - 1], H)
            assert huq.carrier == res.terms[n].carrier


def test_relative_commutator_normal_and_contained(catalog):
    for desc, brace in catalog:
        H = H_of(brace)
        for term in hb.right_series(H).terms:
            rel = hb.relative_commutator(term, H)
            assert rel.is_normal()
            assert term.contains(rel)


def sign_brace_c6():
    """C6 with a o b = a + (-1)^a b: Soc = <2>, and H*H = <2> as well."""
    a = np.arange(6)
    circ = (a[:, None] + np.where(a % 2, -1, 1)[:, None] * a) % 6
    return H_of(validate_skew_brace(hb.cyclic_group(6).table, circ,
                                    identity=0))


# Each test below pins one generator family: on its brace, the result
# changes when the family is left out.  The dot-conjugates of h*i need
# no pin: ``relative_commutator`` proves them redundant.

def test_relative_commutator_needs_i_star_h():
    """S3 = C2.A3 as an exact factorization brace: [A3, H] = A3, while the
    normal closure of H*A3 alone is trivial."""
    H = H_of(factorization_brace(hb.symmetric_group(3), [0, 1], [0, 3, 4]))
    assert hb.relative_commutator(hb.Subbrace(H, (0, 3, 4)), H).carrier \
        == (0, 3, 4)


def test_huq_commutator_needs_the_circ_commutators():
    """The dot group is abelian and Soc*H is trivial, so only the circ
    commutators of Soc with H are not trivial."""
    H = sign_brace_c6()
    soc = hb.socle_annihilator(H).socle
    assert soc.carrier == (0, 2, 4)
    assert hb.huq_commutator(soc, H).carrier == (0, 2, 4)


def test_gamma_series_needs_h_star_i():
    """On the same C6 brace, H*H = <2> but every i*h is trivial for i in
    <2>: the third term comes from the h*i alone."""
    assert [t.carrier for t in hb.gamma_series(sign_brace_c6()).terms] \
        == [tuple(range(6)), (0, 2, 4), (0, 2, 4)]


def test_gamma_series_needs_i_star_h():
    """C2 x C4 (index 4 x1 + x2) with lambda_a(b) = (b1 + [a2/2] b2 mod 2,
    (-1)^a2 b2 mod 4) and a o b = a.lambda_a(b): the term (0, 4) is
    reached through i*h alone."""
    G = product_group(hb.cyclic_group(2), hb.cyclic_group(4))
    x1, x2 = np.divmod(np.arange(8), 4)
    lam = (4 * ((x1 + (x2 // 2)[:, None] * x2) % 2)
           + np.where(x2 % 2, -1, 1)[:, None] * x2 % 4)
    H = H_of(validate_skew_brace(G.table, G.table[np.arange(8)[:, None], lam],
                                 identity=0))
    assert [t.carrier for t in hb.gamma_series(H).terms] \
        == [tuple(range(8)), (0, 2, 4, 6), (0, 4), (0,)]


# ------------------------------------------------------------- hopf center

def test_hopf_center_values(radical_c4, opp_s3, triv_s3):
    assert hb.hopf_center(H_of(radical_c4)).carrier == (0, 1, 2, 3)
    assert hb.hopf_center(H_of(opp_s3)).carrier == (0,)
    assert hb.hopf_center(H_of(triv_s3)).carrier == (0,)
    d4 = hb.trivial_brace(hb.dihedral_group(4))
    assert hb.hopf_center(H_of(d4)).dim == 2


def test_hopf_center_is_strong_and_central(catalog):
    for desc, brace in catalog:
        hz = hb.hopf_center(H_of(brace))
        assert hz.is_strong()
        for g in hz.carrier:
            for x in range(brace.order):
                assert brace.dot.table[g, x] == brace.dot.table[x, g]


# --------------------------------------------------------------- socle/ann

def test_socle_values(radical_c4, opp_s3):
    soc = hb.socle_annihilator(H_of(radical_c4))
    assert soc.socle.carrier == (0, 2)
    assert soc.annihilator.carrier == (0, 2)
    # e1 - e3 solves the defining linear system: the space is strictly
    # larger than the group-like span, and that is reported, not hidden
    assert soc.socle_space.dim == 3 and soc.socle_strict
    assert soc.annihilator_space.dim == 3 and soc.annihilator_strict
    assert soc.socle_space.contains(Element({1: 1, 3: -1}))
    soc2 = hb.socle_annihilator(H_of(opp_s3))
    assert soc2.socle.carrier == (0,)
    assert soc2.annihilator.carrier == (0,)
    assert soc2.socle_space.dim == 1 and not soc2.socle_strict


def test_socle_of_trivial_brace_is_center(catalog):
    for desc, brace in catalog:
        if desc.construction != "trivial":
            continue
        soc = hb.socle_annihilator(H_of(brace))
        z = tuple(np.flatnonzero(brace.dot.center()).tolist())
        assert soc.socle.carrier == z
        assert soc.annihilator.carrier == z
        assert soc.socle_space.dim == len(z) and not soc.socle_strict


def test_socle_properties_everywhere(catalog):
    for desc, brace in catalog:
        soc = hb.socle_annihilator(H_of(brace))
        assert soc.socle.is_normal() and soc.annihilator.is_normal()
        assert soc.socle.contains(soc.annihilator)
        assert soc.socle_space.contains_space(soc.socle_span)
        assert soc.annihilator_space.contains_space(soc.annihilator_span)
        # S = T on the socle carrier
        for g in soc.socle.carrier:
            assert brace.dot.inverses[g] == brace.circ.inverses[g]
        assert soc.socle.carrier == tuple(sorted(oracle.soc_carrier(
            brace.dot.table.tolist(), brace.circ.table.tolist())))
        assert soc.annihilator.carrier == tuple(sorted(oracle.ann_carrier(
            brace.dot.table.tolist(), brace.circ.table.tolist())))


def test_socle_carriers_match_oracle_products(catalog, by_name):
    _, prod = by_name["prod:radical_c4,radical_c4"]
    soc = hb.socle_annihilator(H_of(prod))
    assert soc.socle.carrier == (0, 2, 8, 10)
    _, mixed = by_name["prod:radical_c4,trivial:S3"]
    soc = hb.socle_annihilator(H_of(mixed))
    assert soc.socle.carrier == (0, 12)


# ----------------------------------------------------------- abelianisation

def test_star_abelianization_values(radical_c4, opp_s3, triv_s3):
    F, pi = hb.star_abelianization(H_of(radical_c4))
    assert F.dim == 2 and F.base.is_trivial()
    F, _ = hb.star_abelianization(H_of(opp_s3))
    assert F.dim == 2
    Ht = H_of(triv_s3)
    F, pi = hb.star_abelianization(Ht)
    assert F.dim == 6        # trivial brace: star closure is just k1
    assert hb.hopf_kernel(pi).carrier == (0,)


def test_full_abelianization_values(radical_c4, opp_s3, triv_s3):
    ab, _ = hb.full_abelianization(H_of(triv_s3))
    assert ab.dim == 2
    ab, _ = hb.full_abelianization(H_of(radical_c4))
    assert ab.dim == 2
    triv_ab = hb.trivial_brace(hb.cyclic_group(4))
    ab, _ = hb.full_abelianization(H_of(triv_ab))
    assert ab.dim == 4
    ab, _ = hb.full_abelianization(H_of(opp_s3))
    assert ab.dim == 2


def test_star_closure_is_relative_commutator_of_whole(catalog):
    for desc, brace in catalog:
        H = H_of(brace)
        star_sub = hb.star_closure_subbrace(H)
        assert star_sub.is_normal()
        whole = hb.whole_subbrace(H)
        assert hb.relative_commutator(whole, H).carrier == star_sub.carrier


def assert_abelianization_kernels_match_the_oracle(brace):
    """The kernels of both projections are the oracle's star closure and
    its normal closure of star values and dot-commutators; the latter
    checks independently that the generated join needs no closing."""
    H = H_of(brace)
    dot, circ = brace.dot.table.tolist(), brace.circ.table.tolist()
    for abelianize, closure in ((hb.star_abelianization, oracle.star_closure),
                                (hb.full_abelianization, oracle.ab_closure)):
        Q, pi = abelianize(H)
        kernel = hb.hopf_kernel(pi).carrier
        assert set(kernel) == set(closure(dot, circ))
        assert Q.dim * len(kernel) == brace.order


def test_abelianization_dims_against_oracle(catalog):
    for desc, brace in catalog:
        assert_abelianization_kernels_match_the_oracle(brace)


# --------------------------------------------------------------- nilpotency

def test_nilpotency_report_values(radical_c4, opp_s3):
    rep = hb.nilpotency_report(H_of(radical_c4))
    assert (rep.left.nil_class, rep.right.nil_class, rep.gamma.nil_class,
            rep.adjunction_class) == (3, 3, 3, 2)
    rep = hb.nilpotency_report(H_of(opp_s3))
    assert (rep.left.nil_class, rep.right.nil_class, rep.gamma.nil_class,
            rep.adjunction_class) == (None, None, None, None)
    triv_ab = hb.trivial_brace(hb.cyclic_group(4))
    rep = hb.nilpotency_report(H_of(triv_ab))
    assert (rep.left.nil_class, rep.right.nil_class, rep.gamma.nil_class,
            rep.adjunction_class) == (2, 2, 2, 1)


def test_nilpotency_trivial_nonabelian(triv_s3):
    # trivial braces are right nilpotent (class 2) but the gamma series
    # sees the group's lower central series
    rep = hb.nilpotency_report(H_of(triv_s3))
    assert rep.left.nil_class == 2 and rep.right.nil_class == 2
    assert rep.gamma.nil_class is None
    assert rep.adjunction_class == 1


# ------------------------------------------------------------- coincidence

def test_coincidence_separators_in_radical_c4(radical_c4):
    rep = hb.coincidence_report(H_of(radical_c4))
    assert rep.star_trivial_space.dim == 3
    assert rep.coincidence_space.dim == 3
    assert not rep.equivalent
    assert rep.separator_star_only is not None
    assert rep.separator_coincidence_only is not None
    # the two hand-picked separators lie where they should
    e1me3 = Element({1: 1, 3: -1})
    e1pe3 = Element({1: 1, 3: 1})
    assert rep.star_trivial_space.contains(e1me3)
    assert not rep.coincidence_space.contains(e1me3)
    assert rep.coincidence_space.contains(e1pe3)
    assert not rep.star_trivial_space.contains(e1pe3)


def test_coincidence_trivial_brace_equivalent(triv_s3):
    rep = hb.coincidence_report(H_of(triv_s3))
    assert rep.equivalent
    assert rep.star_trivial_space == rep.coincidence_space


def test_star_trivial_space_matches_star_formulation(catalog):
    """The action-based system defining the star-trivial space agrees
    with the direct star-based system (the two conditions are proved
    equivalent)."""
    for desc, brace in catalog:
        if desc.order > 12:
            continue
        rep = hb.coincidence_report(H_of(brace))
        n = brace.order
        e = brace.identity
        rows = []
        for h in range(n):
            fibers = {}
            for g in range(n):
                fibers.setdefault(brace.star_table[g, h], []).append(g)
            for x, fib in fibers.items():
                if x != e:
                    rows.append(Element({g: 1 for g in fib}))
        from hopfbrace.linalg import common_nullspace
        assert common_nullspace(rows, n) == rep.star_trivial_space


def test_closures_go_through_the_closure_methods(monkeypatch, opp_s3):
    """The benchmark's tracer sees the closure layer only through
    ``FiniteGroup.subgroup_generated`` and ``normal_closure``: a private
    closure path would leave its closure time at zero."""
    calls = []
    for name in ("subgroup_generated", "normal_closure"):
        def counted(self, gens, orig=getattr(hb.FiniteGroup, name),
                    name=name):
            calls.append(name)
            return orig(self, gens)
        monkeypatch.setattr(hb.FiniteGroup, name, counted)
    H = H_of(opp_s3)
    whole = hb.whole_subbrace(H)
    for call, reached in (
            (lambda: hb.generated_subbrace(H, [1]), {"subgroup_generated"}),
            (lambda: hb.relative_commutator(whole, H), {"normal_closure"}),
            (lambda: hb.huq_commutator(whole, H), {"normal_closure"}),
            (lambda: hb.gamma_series(H),
             {"subgroup_generated", "normal_closure"})):
        calls.clear()
        call()
        assert set(calls) == reached, call
