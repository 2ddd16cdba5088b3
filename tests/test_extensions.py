import pytest

import hopfbrace as hb
import hopfbrace.extensions as extensions
import oracle


def test_radical_c4_mod2_central_both(radical_c4):
    H = hb.HopfBrace(radical_c4)
    Q, pi = hb.quotient(H, hb.Subbrace(H, (0, 2)))
    r = hb.analyze_extension(pi)
    assert r.central_hopfcoc and r.central_huq
    assert r.kernel.carrier == (0, 2)
    assert hb.centrality_consequences(pi) == []


def test_identity_morphism_central(opp_s3):
    H = hb.HopfBrace(opp_s3)
    r = hb.analyze_extension(hb.HopfMorphism.identity(H))
    assert r.central_hopfcoc and r.central_huq
    assert r.kernel.carrier == (0,)
    assert hb.centrality_consequences(hb.HopfMorphism.identity(H)) == []


def test_sign_map_not_central_with_witness(opp_s3):
    H = hb.HopfBrace(opp_s3)
    T = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    f = hb.HopfMorphism(H, T, [0, 1, 1, 0, 0, 1])
    r1 = hb.check_central_hopfcoc(f)
    assert not r1.central_hopfcoc
    assert r1.witness_hopfcoc == (3, 1)
    r2 = hb.check_central_huq(f)
    assert not r2.central_huq
    assert r2.witness_huq == (3, 1)
    assert r1.kernel.carrier == (0, 3, 4)


def test_sign_witness_reproducible(opp_s3):
    H = hb.HopfBrace(opp_s3)
    T = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    seen = {hb.check_central_hopfcoc(
        hb.HopfMorphism(H, T, [0, 1, 1, 0, 0, 1])).witness_hopfcoc
        for _ in range(5)}
    assert seen == {(3, 1)}


def test_analyze_extension_builds_one_kernel(opp_s3, monkeypatch):
    """One kernel serves both verdicts; ``test_verdicts_match_oracle``
    checks the verdicts themselves."""
    H = hb.HopfBrace(opp_s3)
    T = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    f = hb.HopfMorphism(H, T, [0, 1, 1, 0, 0, 1])
    kernels = []

    def counted(g):
        kernels.append(hb.hopf_kernel(g))
        return kernels[-1]

    monkeypatch.setattr(extensions, "hopf_kernel", counted)
    r = hb.analyze_extension(f)
    assert len(kernels) == 1 and r.kernel is kernels[0]
    assert (r.witness_hopfcoc, r.witness_huq) == ((3, 1), (3, 1))


def test_trivial_s3_huq_witness(triv_s3):
    H = hb.HopfBrace(triv_s3)
    T = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    f = hb.HopfMorphism(H, T, [0, 1, 1, 0, 0, 1])
    r = hb.check_central_huq(f)
    assert not r.central_huq and r.witness_huq == (3, 1)
    # but the star products vanish on a trivial brace, so the relative
    # commutator with the kernel is trivial
    assert hb.check_central_hopfcoc(f).central_hopfcoc


def test_non_surjective_rejected(radical_c4):
    H = hb.HopfBrace(radical_c4)
    f = hb.HopfMorphism(H, H, [0, 0, 0, 0])
    with pytest.raises(hb.MorphismError):
        hb.check_central_hopfcoc(f)
    with pytest.raises(hb.MorphismError):
        hb.check_central_huq(f)


def test_consequences_requires_centrality(opp_s3):
    H = hb.HopfBrace(opp_s3)
    T = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    f = hb.HopfMorphism(H, T, [0, 1, 1, 0, 0, 1])
    with pytest.raises(ValueError):
        hb.centrality_consequences(f)


def test_projection_centrality_matches_relative_commutator(catalog):
    """For every normal subbrace of every (small) catalog brace, the
    projection is hopfcoc-central iff the relative commutator with the
    kernel is trivial."""
    for desc, brace in catalog:
        if desc.order > 24:
            continue
        H = hb.HopfBrace(brace)
        for carrier in oracle.subgroups(brace.dot.table):
            B = hb.Subbrace(H, carrier)
            if not B.is_normal():
                continue
            Q, pi = hb.quotient(H, B)
            verdict = hb.check_central_hopfcoc(pi).central_hopfcoc
            assert verdict == hb.relative_commutator(B, H).is_trivial(), \
                (desc.name, carrier)


def test_quotients_by_annihilator_subbraces_are_central(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        soc = hb.socle_annihilator(H)
        ann = set(soc.annihilator.carrier)
        for carrier in oracle.subgroups(brace.dot.table):
            if not set(carrier) <= ann:
                continue
            B = hb.Subbrace(H, carrier)
            if not B.is_normal():
                continue
            Q, pi = hb.quotient(H, B)
            r = hb.analyze_extension(pi)
            assert r.central_hopfcoc and r.central_huq, (desc.name, carrier)
            assert hb.centrality_consequences(pi) == []


def test_verdicts_match_oracle(catalog):
    for desc, brace in catalog:
        if desc.order > 12:
            continue
        dot = brace.dot.table.tolist()
        circ = brace.circ.table.tolist()
        H = hb.HopfBrace(brace)
        for carrier in oracle.subgroups(brace.dot.table):
            B = hb.Subbrace(H, carrier)
            if not B.is_normal():
                continue
            Q, pi = hb.quotient(H, B)
            want_cc, want_cc_witness = oracle.central_hopfcoc(
                dot, circ, set(carrier))
            want_huq, want_huq_witness = oracle.central_huq(
                dot, circ, set(carrier))
            cc, huq = hb.check_central_hopfcoc(pi), hb.check_central_huq(pi)
            assert cc.central_hopfcoc == want_cc
            assert cc.witness_hopfcoc == want_cc_witness
            assert huq.central_huq == want_huq
            assert huq.witness_huq == want_huq_witness
            r = hb.analyze_extension(pi)
            assert (r.central_hopfcoc, r.witness_hopfcoc, r.central_huq,
                    r.witness_huq) == (want_cc, want_cc_witness, want_huq,
                                       want_huq_witness)
