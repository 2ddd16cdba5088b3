import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hopfbrace as hb
import reference_verify as ref
from hopfbrace import verify
from hopfbrace.cli import main
from hopfbrace.verify import (REGISTRY, CheckReport, _basis_ops,
                              _check_identity, _element_ops, _evaluate,
                              _identity)

GOLDEN = Path(__file__).parent / "data" / "verify_all.json"
GOLDEN_SEED_99 = Path(__file__).parent / "data" / "verify_all_seed99.json"


def test_axiom_suite_passes_on_catalog(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_hopf_brace_axiom(H, samples=8)
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
    H = hb.HopfBrace(radical_c4)
    with pytest.raises(ValueError):
        hb.verify_star_lemma(H, 5)
    for clause in (1.0, True, np.float64(2)):
        with pytest.raises(TypeError):
            hb.verify_star_lemma(H, clause)


def test_structure_suite(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_structure_identities(H, samples=8)
        assert report.ok, (desc.name, [str(v) for v in report.violations])


def test_propositions_suite(catalog):
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        report = hb.verify_propositions(H)
        assert report.ok, (desc.name, [str(v) for v in report.violations])


def _break_propositions(monkeypatch):
    """On radical_c4, make every relative commutator the whole brace and
    the gamma series' Huq cross-check fail."""
    def gamma_series(H, max_n):
        raise hb.CrossCheckError("gamma term 2 differs (planted)")

    monkeypatch.setattr(verify, "relative_commutator",
                        lambda I, H: hb.whole_subbrace(H))
    monkeypatch.setattr(verify, "gamma_series", gamma_series)


# radical_c4's right series is (0, 1, 2, 3), (0, 2), (0,); its star
# closure is (0, 2).
BROKEN_PROPOSITIONS = [
    ("gamma-huq-equality", "gamma term 2 differs (planted)"),
    ("relative-commutator-2-inside-argument", (0, 1, 2, 3)),
    ("relative-commutator-3-inside-argument", (0, 1, 2, 3)),
    ("star-closure-equals-relative-commutator", None),
]


def test_failing_propositions_are_reported(radical_c4, monkeypatch):
    """The failure path of the proposition suite: a proposition that does
    not hold and a gamma step that raises are each a violation, with its
    layer and witness, and the rest of the suite still runs."""
    _break_propositions(monkeypatch)
    report = hb.verify_propositions(hb.HopfBrace(radical_c4))
    assert [(v.identity, v.witness) for v in report.violations] \
        == BROKEN_PROPOSITIONS
    assert {v.layer for v in report.violations} == {"proposition"}
    # the 36 checks of the intact suite, less the 5 on the gamma terms
    assert not report.ok and report.basis_checks == 31


def test_cli_reports_failing_propositions(capsys, monkeypatch):
    _break_propositions(monkeypatch)
    assert main(["verify", "radical_c4", "--suite", "propositions"]) == 1
    out = capsys.readouterr().out
    assert "radical_c4" in out and "FAIL" in out
    assert ("      violation: relative-commutator-2-inside-argument "
            "[proposition] witness=(0, 1, 2, 3)") in out.splitlines()
    assert sum(line.startswith("      violation: ")
               for line in out.splitlines()) == len(BROKEN_PROPOSITIONS)


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

    report = CheckReport()
    _check_identity(hb.HopfBrace(tampered), REGISTRY["compatibility"],
                    random.Random(0), 0, report)
    assert not report.ok
    assert report.violations[0].layer == "basis"
    assert len(report.violations[0].witness) == 3


# Random-layer witnesses of the tampered radical_c4 below at seed=5,
# samples=4, per suite, recorded before the suites shared one runner.
SEED_5_WITNESSES = {
    "axioms": [
        ("compatibility",
         ("-4*g1 + -1*g3", "3*g1 + -5*g2", "-3/2*g0 + -4/3*g3"))],
    "lemma": [
        ("star-lemma-2",
         ("-4*g1 + -1*g3", "3*g1 + -5*g2", "-3/2*g0 + -4/3*g3")),
        ("star-lemma-3", ("-2*g0 + 9/2*g2", "5/2*g1 + -3*g3", "-7/3*g1 + g3")),
        ("star-lemma-4", ("3*g1 + -5*g2", "-3/2*g0 + -4/3*g3")),
        ("star-lemma-4", ("-2*g0 + 9/2*g2", "5/2*g1 + -3*g3"))],
    "structure": [
        ("circ-via-action", ("3*g1 + -5*g2", "-3/2*g0 + -4/3*g3")),
        ("dot-via-action", ("-7/3*g1 + g3", "1/4*g0 + 1/3*g2")),
        ("dot-via-action", ("-4*g1 + -9/4*g2", "g0 + -1/2*g1")),
        ("dot-via-action", ("g1 + -2*g2", "8/3*g0 + -1*g3")),
        ("action-module",
         ("-8/3*g1 + -2*g2", "3*g0 + 1/3*g1", "5/3*g1 + 3*g3")),
        ("action-module", ("g1 + -3/2*g2", "-9/4*g0 + -2*g1", "g1 + 5/2*g3")),
        ("star-via-antipodes", ("-3*g1 + 2*g3", "-5/3*g0 + 9*g3"))],
}


def test_random_layer_seeding_is_pinned():
    """The seeding policy, seen through witnesses: radical_c4 with circ
    entries (1, 0) and (1, 1) swapped after validation, as in
    ``test_verifier_catches_planted_violation``.  Each suite's random
    witnesses at seed 5 are the recorded ones, another seed gives others,
    and each lemma clause is seeded afresh, so the lemma suite reports
    exactly what ``verify_star_lemma`` reports for clauses 1..4 in turn."""
    tampered = hb.radical_c4_brace()
    tampered.circ.table.setflags(write=True)
    tampered.circ.table[1, 0], tampered.circ.table[1, 1] = (
        int(tampered.circ.table[1, 1]), int(tampered.circ.table[1, 0]))
    H = hb.HopfBrace(tampered)

    def witnesses(report):
        return [(v.identity, v.witness) for v in report.violations
                if v.layer == "random"]

    for suite, want in SEED_5_WITNESSES.items():
        assert witnesses(hb.verify_suite(H, suite, samples=4, seed=5)) == want
        other = witnesses(hb.verify_suite(H, suite, samples=4, seed=6))
        assert other and other != want, suite
    lemma = hb.verify_suite(H, "lemma", samples=4, seed=5)
    clauses = [v for k in (1, 2, 3, 4)
               for v in hb.verify_star_lemma(H, k, samples=4,
                                             seed=5).violations]
    assert lemma.violations == clauses


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


def test_verify_all_json_seed_99_matches_golden(capsys):
    """`verify --all --json --seed 99`, byte for byte against the output
    recorded before elements moved to integer numerators."""
    assert main(["verify", "--all", "--json", "--seed", "99"]) == 0
    assert capsys.readouterr().out == GOLDEN_SEED_99.read_text(
        encoding="utf-8")


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
    report = CheckReport()
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


# Tampered braces of orders 6 to 96: catalog names, and D48 built here.
TAMPERED = ("opposite:S3", "trivial:D4", "opposite:A4",
            "prod:radical_c4,radical_c4", "opposite:S4",
            "prod:opposite:S4,trivial:C2", "opposite:D48")


def _brace(by_name, name):
    if name == "opposite:D48":
        return hb.opposite_brace(hb.dihedral_group(48))
    return by_name[name][1]


def _swap_circ_entries(brace, rng):
    """A fresh copy of the brace, then two entries swapped in each of two
    rows of its circ table, as in ``test_verifier_catches_planted_violation``:
    the rows stay permutations, the lambda and star tables stay as built."""
    copy = hb.validate_skew_brace(brace.dot.table, brace.circ.table)
    circ, n = copy.circ.table, copy.order
    circ.setflags(write=True)
    rows = rng.choice(np.delete(np.arange(n), copy.identity), 2,
                      replace=False)
    for row in rows:
        x, y = rng.choice(n, 2, replace=False)
        circ[row, [x, y]] = circ[row, [y, x]]
    circ.setflags(write=False)
    return copy


# A loop: a Latin square with two-sided identity 0 that is not
# associative.  Light's test runs on its greedy set without the identity,
# S = [1], and the witness comes from the full sweep.
LOOP5 = np.array([[0, 1, 2, 3, 4], [1, 4, 3, 2, 0], [2, 3, 4, 0, 1],
                  [3, 0, 1, 4, 2], [4, 2, 0, 1, 3]])


# The default block budget (one block below order ~50, seven at 96) and
# one n^2 slice per block, so that blocks are offset at every order.
BLOCKS = (hb.skewbrace._BLOCK, 1)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", TAMPERED)
def test_sliced_witnesses_match_the_full_broadcast(by_name, name, block,
                                                   monkeypatch):
    """On tampered tables every basis identity reports the witness and
    the basis checks of the full n^arity broadcast.  Some three-variable
    identity fails in more than one slice, so a sweep that kept a later
    failing block would report another witness."""
    monkeypatch.setattr(hb.skewbrace, "_BLOCK", block)
    H = hb.HopfBrace(_swap_circ_entries(_brace(by_name, name),
                                        np.random.default_rng(len(name))))
    failing_slices = 0
    for ident in REGISTRY.values():
        if not ident.basis:
            continue
        report = CheckReport()
        _check_identity(H, ident, random.Random(0), 0, report)
        checks, mism = ref.basis_sweep(H.base, ident)
        witness = ref.first_true(mism)
        assert report.basis_checks == checks
        assert [v.witness for v in report.violations] == (
            [] if witness is None else [witness]), ident.name
        if ident.arity == 3:
            failing_slices = max(failing_slices,
                                 int(mism.any(axis=(1, 2)).sum()))
    assert failing_slices > 1


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", TAMPERED)
def test_validator_witnesses_match_the_full_sweep(by_name, name, block,
                                                  monkeypatch):
    """The associativity and compatibility witnesses are the first
    failing triples of the defining laws swept over all n^3 triples."""
    monkeypatch.setattr(hb.skewbrace, "_BLOCK", block)
    brace = _brace(by_name, name)
    d, n, e = brace.dot.table, brace.order, brace.identity
    rng = np.random.default_rng(n)
    j, k = rng.choice(n, 2, replace=False)
    swapped = d.copy()               # columns swapped: still a Latin square
    swapped[:, [j, k]] = swapped[:, [k, j]]
    for latin in (swapped, LOOP5):
        with pytest.raises(hb.NotAGroupError, match="associativity") as info:
            hb.FiniteGroup(latin)
        assert info.value.witness == ref.first_true(
            ref.associativity_mismatch(latin))
    perm = np.concatenate([[e], rng.permutation(np.delete(np.arange(n), e))])
    circ = np.argsort(perm)[d[np.ix_(perm, perm)]]     # d carried along perm
    with pytest.raises(hb.CompatibilityError) as info:
        hb.SkewBrace(brace.dot, hb.FiniteGroup(circ))
    assert info.value.witness == ref.first_true(
        ref.compatibility_mismatch(brace.dot, circ))


def test_identity_suites_hold_no_cubic_array():
    """At order 96 the basis layer's peak allocation stays below one
    n^3 int64 array (6.75 MiB): the sweeps hold blocks of n^2 slices."""
    H = hb.HopfBrace(hb.opposite_brace(hb.dihedral_group(48)))
    cube = 96 ** 3 * 8
    for suite in ("axioms", "lemma", "structure"):
        tracemalloc.start()
        try:
            report = hb.verify_suite(H, suite, samples=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.basis_checks >= 96 ** 3
        assert peak < cube, (suite, peak)


@pytest.mark.slow
def test_all_suites_pass_at_the_order_cap():
    """All four suites on opposite_brace(D100), order ORDER_CAP = 200."""
    brace = hb.opposite_brace(hb.dihedral_group(100))
    assert brace.order == hb.skewbrace.ORDER_CAP
    H = hb.HopfBrace(brace)
    for suite in hb.SUITES:
        report = hb.verify_suite(H, suite)
        assert report.ok, (suite, [str(v) for v in report.violations])
        assert report.basis_checks > 0
