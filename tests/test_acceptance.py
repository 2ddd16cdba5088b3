"""Acceptance suite: one test per criterion, exact tolerances throughout
(rational arithmetic; no floats anywhere in the engine).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import json
import time

import hopfbrace as hb
import oracle
from shared import ideals

SAMPLES = 32
SEED = 20240


def _pass(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_axiom_suite_exhaustive_and_fast(catalog):
    assert len(catalog) >= 13
    orders = sorted(d.order for d, _ in catalog)
    assert orders[0] == 2 and orders[-1] == 48
    started = time.perf_counter()
    total_triples = 0
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_hopf_brace_axiom(H, samples=SAMPLES, seed=SEED)
        assert report.ok, (desc.name, [str(v) for v in report.violations])
        assert report.basis_checks == desc.order ** 3
        total_triples += report.basis_checks
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    _pass(1, f"axiom verified on {len(catalog)} braces, "
             f"{total_triples} basis triples, {elapsed:.2f}s < 5s")


def test_criterion_2_star_lemma_suite(catalog):
    violations = 0
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        for clause in (1, 2, 3, 4):
            report = hb.verify_star_lemma(H, clause, samples=SAMPLES,
                                          seed=SEED)
            violations += len(report.violations)
            assert report.ok, (desc.name, clause)
            assert report.random_checks == SAMPLES
    _pass(2, f"all four star-lemma clauses, exhaustive + {SAMPLES} random "
             f"2-term rational combinations per clause, zero violations")
    assert violations == 0


def test_criterion_3_structure_identity_suite(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_structure_identities(H, samples=SAMPLES, seed=SEED)
        assert report.ok, (desc.name, [str(v) for v in report.violations])
    _pass(3, "structural equalities (products/antipodes via the action, "
             "module-algebra and coalgebra compatibilities) hold exhaustively")


def test_criterion_4_proposition_suite(catalog):
    checked_subgroups = 0
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)

        # (a) right-series terms: both characterizations, and their
        # agreement over ALL subgroups when the order allows it
        right = hb.right_series(H)
        for term in right.terms:
            assert term.is_normal() and term.is_normal_via_star()
        if desc.order <= 24:
            for carrier in oracle.subgroups(brace.dot.table):
                B = hb.Subbrace(H, carrier)
                assert B.is_normal() == B.is_normal_via_star(), \
                    (desc.name, carrier)
                checked_subgroups += 1

        # (b) left-series terms are strong
        for term in hb.left_series(H).terms:
            assert term.is_strong()

        # (c) gamma step = Huq commutator at every computed step
        gamma = hb.gamma_series(H)
        for n in range(1, len(gamma.terms)):
            assert hb.huq_commutator(gamma.terms[n - 1], H).carrier \
                == gamma.terms[n].carrier

        # (d) socle and annihilator are normal
        soc = hb.socle_annihilator(H)
        assert soc.socle.is_normal() and soc.annihilator.is_normal()

        # (e) relative commutator is normal for every normal subbrace
        if desc.order <= 24:
            normal_subs = ideals(H)
        else:
            normal_subs = list(right.terms) + [soc.socle, soc.annihilator]
        for B in normal_subs:
            rel = hb.relative_commutator(B, H)
            assert rel.is_normal(), (desc.name, B.carrier)
            assert B.contains(rel)
    _pass(4, f"series normality/strongness, characterization agreement on "
             f"{checked_subgroups} subgroups, gamma/Huq equality, "
             f"socle/annihilator and relative-commutator normality")


def test_criterion_5_derived_regression_values(catalog, by_name):
    # -- radical_c4, against both frozen literals and the live oracle
    desc, brace = by_name["radical_c4"]
    dot, circ = brace.dot.table.tolist(), brace.circ.table.tolist()
    H = hb.HopfBrace(brace)
    for runner in (hb.left_series, hb.right_series, hb.gamma_series):
        assert runner(H).sizes() == [4, 2, 1]
    assert [len(t) for t in oracle.right_series(dot, circ)] == [4, 2, 1]
    soc = hb.socle_annihilator(H)
    assert soc.socle.carrier == (0, 2) == tuple(sorted(
        oracle.soc_carrier(dot, circ)))
    assert soc.annihilator.carrier == (0, 2)
    F, _ = hb.star_abelianization(H)
    ab, _ = hb.full_abelianization(H)
    assert F.dim == 2 and ab.dim == 2
    Q, pi = hb.quotient(H, hb.Subbrace(H, (0, 2)))
    rep = hb.analyze_extension(pi)
    assert rep.central_hopfcoc and rep.central_huq
    assert oracle.central_hopfcoc(dot, circ, {0, 2}) == (True, None)

    # -- opposite:S3
    desc, brace = by_name["opposite:S3"]
    dot, circ = brace.dot.table.tolist(), brace.circ.table.tolist()
    Ho = hb.HopfBrace(brace)
    for runner in (hb.left_series, hb.right_series, hb.gamma_series):
        res = runner(Ho)
        assert res.terms[-1].dim == 3 and res.nil_class is None
        assert res.terms[-1].carrier == (0, 3, 4)
    soc = hb.socle_annihilator(Ho)
    assert soc.socle.carrier == (0,) and soc.annihilator.carrier == (0,)
    F, _ = hb.star_abelianization(Ho)
    ab, _ = hb.full_abelianization(Ho)
    assert F.dim == 2 and ab.dim == 2
    T = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    sign = hb.HopfMorphism(Ho, T, [0, 1, 1, 0, 0, 1])
    r = hb.check_central_hopfcoc(sign)
    assert not r.central_hopfcoc and r.witness_hopfcoc == (3, 1)
    assert oracle.central_hopfcoc(dot, circ, {0, 3, 4}) == (False, (3, 1))

    # -- trivial braces: left series [|G|, 1], socle = center, F = whole
    for name in ("trivial:C2", "trivial:S3", "trivial:D4", "trivial:S4"):
        desc, brace = by_name[name]
        Ht = hb.HopfBrace(brace)
        assert hb.left_series(Ht).sizes() == [desc.order, 1]
        soc = hb.socle_annihilator(Ht)
        assert soc.socle.mask.tolist() == brace.dot.center().tolist()
        F, _ = hb.star_abelianization(Ht)
        assert F.dim == desc.order
    _pass(5, "regression values match the independent set-level oracle "
             "exactly (radical_c4, opposite:S3, trivial braces)")


def test_criterion_6_cross_layer_faithfulness(catalog):
    pairs = 0
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        for a in range(desc.order):
            ba = H.basis(a)
            for b in range(desc.order):
                bb = H.basis(b)
                assert H.star(ba, bb) == H.basis(brace.star_table[a, b])
                assert H.act(ba, bb) == H.basis(brace.lambda_table[a, b])
                pairs += 1
    _pass(6, f"element-level star/action agree with the set level on all "
             f"{pairs} group-like pairs")


def test_criterion_7_linear_vs_set_socle(catalog):
    strict = []
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        soc = hb.socle_annihilator(H)
        assert soc.socle_space.contains_space(soc.socle_span), desc.name
        assert soc.annihilator_space.contains_space(soc.annihilator_span), \
            desc.name
        if soc.socle_strict or soc.annihilator_strict:
            strict.append((desc.name, soc.socle_space.dim, soc.socle.dim))
    # the strict inclusions are reported, never asserted absent; the
    # radical braces genuinely exhibit them
    assert any(name.startswith("radical_c4") or name.startswith("prod:radical")
               for name, *_ in strict)
    _pass(7, f"group-like spans sit inside the solution spaces everywhere; "
             f"strict inclusions reported for {[s[0] for s in strict]}")


def test_criterion_8_negative_controls(tmp_path, by_name):
    # (a) mutating the circ table of radical_c4 produces a witnessed
    # validation failure: a raw one-entry edit is caught by the group
    # checks, and a valid-group replacement that breaks the brace law is
    # caught by the compatibility check with its witnessing triple
    desc, brace = by_name["radical_c4"]
    circ = brace.circ.table.tolist()
    circ[1][1] = circ[1][0]
    try:
        hb.validate_skew_brace(brace.dot.table.tolist(), circ)
        raise AssertionError("mutated brace validated")
    except hb.NotAGroupError as exc:
        assert exc.witness is not None
    incompatible = [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 2, 1, 0]]
    try:
        hb.validate_skew_brace(brace.dot.table.tolist(), incompatible)
        raise AssertionError("incompatible brace validated")
    except hb.CompatibilityError as exc:
        assert exc.witness == (1, 1, 1)
        witness_a = exc.witness

    # (b) the sign-map witness is byte-identical across runs
    from hopfbrace.cli import main
    path = tmp_path / "sign.json"
    hb.save_map([0, 1, 1, 0, 0, 1], path, source="opposite:S3",
                target="trivial:C2")
    outs = set()
    for _ in range(3):
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["check-central", "opposite:S3", "--map", str(path),
                         "--json"])
        assert code == 0
        outs.add(buf.getvalue())
    assert len(outs) == 1
    doc = json.loads(next(iter(outs)))
    assert doc["results"]["witness_hopfcoc"] == [3, 1]
    _pass(8, f"mutated table produced witness {witness_a}; sign-map "
             f"witness (3, 1) byte-identical across runs")
