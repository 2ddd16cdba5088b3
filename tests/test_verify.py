import random
from pathlib import Path

import pytest

import hopfbrace as hb
from hopfbrace.cli import main
from hopfbrace.hopf import PrimeField
from hopfbrace.verify import (REGISTRY, CheckReport, _basis_ops,
                              _check_identity, _element_ops, _evaluate,
                              _identity)

GOLDEN = Path(__file__).parent / "data" / "verify_all.json"


def test_axiom_suite_passes_on_catalog(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_hopf_brace_axiom(H, samples=8, label=desc.name)
        assert report.ok, [str(v) for v in report.violations]
        assert report.basis_checks == brace.order ** 3
        assert report.random_checks == 8


def test_lemma_suite_all_clauses(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        for clause in (1, 2, 3, 4):
            report = hb.verify_star_lemma(H, clause, samples=8)
            assert report.ok, (desc.name, clause,
                               [str(v) for v in report.violations])


def test_lemma_rejects_bad_clause(radical_c4):
    with pytest.raises(ValueError):
        hb.verify_star_lemma(hb.HopfBrace(radical_c4), 5)


def test_structure_suite(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_structure_identities(H, samples=8)
        assert report.ok, (desc.name, [str(v) for v in report.violations])


def test_propositions_suite(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_propositions(H, label=desc.name)
        assert report.ok, (desc.name, [str(v) for v in report.violations])


def test_trivial_brace_clause3_collapses():
    """On a trivial brace both sides of the action-of-star clause reduce
    to counits; the verifier must agree."""
    H = hb.HopfBrace(hb.trivial_brace(hb.symmetric_group(3)))
    report = hb.verify_star_lemma(H, 3, samples=16)
    assert report.ok


def test_corrupted_brace_reports_witness(radical_c4):
    """Negative control: breaking one circ entry must surface a witness,
    either as a group failure or as a compatibility failure."""
    circ = radical_c4.circ.table.copy()
    circ[1][1], circ[1][3] = circ[1][3], circ[1][1]
    with pytest.raises((hb.CompatibilityError, hb.NotAGroupError)) as info:
        hb.validate_skew_brace(radical_c4.dot.table, circ)
    assert info.value.witness is not None


def test_verifier_catches_planted_violation():
    """Negative control for the verifier itself: tamper with the circ
    table after validation (making the induced action of 1 fail to be an
    automorphism) and confirm the axiom sweep produces a basis witness."""
    tampered = hb.radical_c4_brace()
    tampered.circ.table.setflags(write=True)
    # swap 1 o 0 with 1 o 1: row stays a permutation, compatibility breaks
    tampered.circ.table[1, 0], tampered.circ.table[1, 1] = (
        int(tampered.circ.table[1, 1]), int(tampered.circ.table[1, 0]))

    report = CheckReport("axioms", "tampered")
    _check_identity(hb.HopfBrace(tampered), REGISTRY["compatibility"],
                    random.Random(0), 0, report)
    assert not report.ok
    assert report.violations[0].layer == "basis"
    assert len(report.violations[0].witness) == 3


def test_random_layer_uses_seed(radical_c4):
    H = hb.HopfBrace(radical_c4)
    r1 = hb.verify_hopf_brace_axiom(H, samples=8, seed=123)
    r2 = hb.verify_hopf_brace_axiom(H, samples=8, seed=123)
    assert r1.random_checks == r2.random_checks == 8
    assert r1.ok and r2.ok


def test_verify_suite_dispatch(radical_c4):
    H = hb.HopfBrace(radical_c4)
    for suite in hb.SUITES:
        assert hb.verify_suite(H, suite, samples=4).ok
    with pytest.raises(ValueError):
        hb.verify_suite(H, "nonsense")


def test_verify_all_json_matches_golden(capsys, monkeypatch):
    """`verify --all --json` at the default seed, byte for byte against
    the output recorded before the identities moved into the registry."""
    monkeypatch.delenv("HOPFBRACE_SEED", raising=False)
    assert main(["verify", "--all", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


def test_registry_defines_every_identity_once():
    assert len(REGISTRY) == 19
    suites = [ident.suite for ident in REGISTRY.values()]
    assert (suites.count("axioms"), suites.count("lemma"),
            suites.count("structure")) == (1, 4, 14)
    element_only = {n for n, ident in REGISTRY.items() if not ident.basis}
    assert element_only == {"action-comultiplicative", "action-counit",
                            "star-comultiplicative", "star-counit"}
    assert REGISTRY["compatibility"].rhs.repeated == ("a",)
    assert REGISTRY["star-lemma-2"].rhs.repeated == ("x", "y", "a")
    assert REGISTRY["star-via-action"].rhs.repeated == ("b",)
    assert REGISTRY["action-module"].rhs.repeated == ()


def test_identity_suites_over_gf5(catalog):
    """All three identity suites in characteristic 5 on every catalog
    brace (no catalog order is divisible by 5)."""
    for desc, brace in catalog:
        H = hb.HopfBrace(brace, PrimeField(5))
        for suite in ("axioms", "lemma", "structure"):
            report = hb.verify_suite(H, suite, samples=4, seed=5)
            assert report.ok, (desc.name, suite,
                               [str(v) for v in report.violations])
            assert report.random_checks > 0


def test_element_layer_agrees_with_basis_layer(catalog):
    """On basis-element arguments the element evaluation of each side is
    the basis element that the basis layer computes."""
    rng = random.Random(11)
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        basis_ops, element_ops = _basis_ops(brace), _element_ops(H)
        for ident in REGISTRY.values():
            if not ident.basis:
                continue
            for _ in range(6):
                idx = [rng.randrange(H.dim) for _ in ident.variables]
                indices = dict(zip(ident.variables, idx))
                elements = {v: H.basis(i) for v, i in indices.items()}
                for side in (ident.lhs, ident.rhs):
                    want = eval(side.code, {**basis_ops, **indices})
                    got = _evaluate(side, element_ops, H, elements)
                    assert got == H.basis(int(want)), (desc.name, ident.name,
                                                       idx)


def _layers(H, ident, samples=8):
    report = CheckReport(ident.suite, "mutant")
    _check_identity(H, ident, random.Random(3), samples, report)
    return {v.layer for v in report.violations}


def test_wrong_rhs_is_caught_by_both_layers(by_name):
    """Mutation check: compatibility with the antipode dropped."""
    H = hb.HopfBrace(by_name["opposite:S3"][1])
    wrong = _identity("axioms", "compatibility", "a b c",
                      "circ(a, dot(b, c))", "dot(circ(a, b), circ(a, c))")
    assert _layers(H, wrong) == {"basis", "random"}
    assert _layers(H, REGISTRY["compatibility"]) == set()


def test_missing_sweedler_expansion_is_caught(by_name):
    """Mutation check: evaluating a side with a repeated variable on the
    full element instead of its Sweedler legs fails the random layer,
    for every such side of every identity."""
    H = hb.HopfBrace(by_name["opposite:S4"][1])
    mutated = 0
    for ident in REGISTRY.values():
        for side in ("lhs", "rhs"):
            if not getattr(ident, side).repeated:
                continue
            unexpanded = getattr(ident, side)._replace(repeated=())
            mutant = ident._replace(**{side: unexpanded})
            assert "random" in _layers(H, mutant, samples=4), (ident.name,
                                                               side)
            mutated += 1
    assert mutated == 15
