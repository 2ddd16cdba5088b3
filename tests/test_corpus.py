"""The generated corpus of ``tests/corpus.py``: its labelled counts, the
oracle's verdict on every brace, the series, socle, annihilator and center
of every brace, a file round trip and the basis layer of every verify
suite on every brace (all 32 random samples too, under ``slow``), and the
commutators, gamma series and central-extension verdicts against the
oracle on every ideal of every brace."""

from collections import Counter

import pytest

import hopfbrace as hb
import corpus
import oracle

ORDERS = sorted(corpus.GROUPS)


def test_labelled_counts():
    """6, 10 and 314 labelled braces: 4, 6 and 47 classes up to Aut(A)."""
    assert [len(corpus.braces(n)) for n in (4, 6, 8)] == [6, 10, 314]
    assert sum(len(corpus.braces(n)) for n in ORDERS) == 476


def test_class_counts():
    """The isomorphism classes per order, as Guarnieri-Vendramin 2017
    (Math. Comp. 86, Table 5.1; OEIS A290444) list them, recalled: the
    table was not re-read offline.  Unlike the labelled counts above,
    which pin the search's own output, these catch a search that misses
    lambda maps."""
    assert [corpus.classes(n) for n in ORDERS] \
        == [1, 1, 4, 1, 6, 1, 47, 4, 6, 38]


@pytest.mark.parametrize("order", ORDERS)
def test_every_brace_is_a_skew_brace(order):
    braces = corpus.braces(order)
    assert len({(name, str(circ)) for name, _, circ in braces}) \
        == len(braces)
    for _, dot, circ in braces:
        assert oracle.is_skew_brace(dot, circ)


@pytest.mark.parametrize("order", ORDERS)
def test_series_socle_and_center_match_the_oracle(order):
    for _, dot, circ in corpus.braces(order):
        H = hb.HopfBrace(hb.validate_skew_brace(dot, circ))
        for ours, theirs in ((hb.left_series(H), oracle.left_series),
                             (hb.right_series(H), oracle.right_series)):
            assert [set(t.carrier) for t in ours.terms] == theirs(dot, circ)
        soc = hb.socle_annihilator(H)
        assert set(soc.socle.carrier) == oracle.soc_carrier(dot, circ)
        assert set(soc.annihilator.carrier) == oracle.ann_carrier(dot, circ)
        assert set(hb.hopf_center(H).carrier) == oracle.center(dot)


@pytest.mark.parametrize("order", ORDERS)
def test_every_brace_survives_a_file_round_trip(order, tmp_path):
    path = tmp_path / "brace.json"
    for name, dot, circ in corpus.braces(order):
        brace = hb.validate_skew_brace(dot, circ)
        hb.save_brace(brace, path, name=name)
        desc, loaded = hb.load_brace(path)
        assert loaded == brace and desc.name == name


@pytest.mark.parametrize("samples", [
    0, pytest.param(hb.DEFAULT_SAMPLES, marks=pytest.mark.slow)])
@pytest.mark.parametrize("order", ORDERS)
def test_every_suite_passes_on_every_brace(order, samples):
    for _, dot, circ in corpus.braces(order):
        H = hb.HopfBrace(hb.validate_skew_brace(dot, circ))
        for suite in hb.SUITES:
            report = hb.verify_suite(H, suite, samples=samples)
            assert report.ok and report.basis_checks, (suite, dot, circ)


# (hopfcoc, huq) verdicts on H -> H/I: both, neither, hopfcoc-only
VERDICTS = {2: (2, 0, 0), 3: (2, 0, 0), 4: (16, 4, 0), 5: (2, 0, 0),
            6: (13, 16, 2), 7: (2, 0, 0), 8: (637, 885, 14), 9: (29, 10, 0),
            10: (17, 24, 2), 12: (182, 302, 14)}


@pytest.mark.parametrize("order", ORDERS)
def test_commutators_match_the_oracle_on_every_ideal(order):
    """The oracle gathers every generator family of each definition, so
    a family the engine leaves out must be redundant on all of these.
    The projection by each ideal gets the oracle's centrality verdicts
    and witnesses."""
    ideals, verdicts = 0, Counter()
    for _, dot, circ in corpus.braces(order):
        H = hb.HopfBrace(hb.validate_skew_brace(dot, circ))
        assert [set(t.carrier) for t in hb.gamma_series(H).terms] \
            == oracle.gamma_series(dot, circ)
        for carrier in oracle.subgroups(dot):
            if not oracle.is_normal_subbrace(dot, circ, carrier):
                continue
            ideals += 1
            I = hb.Subbrace(H, carrier)
            assert set(hb.relative_commutator(I, H).carrier) \
                == oracle.relative_commutator(dot, circ, carrier)
            assert set(hb.huq_commutator(I, H).carrier) \
                == oracle.huq_commutator(dot, circ, carrier)
            r = hb.analyze_extension(hb.quotient(H, I)[1])
            hopfcoc = oracle.central_hopfcoc(dot, circ, set(carrier))
            huq = oracle.central_huq(dot, circ, set(carrier))
            assert (r.central_hopfcoc, r.witness_hopfcoc) == hopfcoc
            assert (r.central_huq, r.witness_huq) == huq
            verdicts[hopfcoc[0], huq[0]] += 1
    # 1,595 ideals at orders up to 8, 580 at orders 9, 10 and 12
    assert ideals == {2: 2, 3: 2, 4: 20, 5: 2, 6: 31, 7: 2, 8: 1536,
                      9: 39, 10: 43, 12: 498}[order]
    # 902 both, 1,241 neither, 32 hopfcoc-only, and never huq-only
    assert (verdicts[True, True], verdicts[False, False],
            verdicts[True, False]) == VERDICTS[order]
