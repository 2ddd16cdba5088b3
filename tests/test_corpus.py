"""The generated corpus of ``tests/corpus.py``: its labelled counts, the
oracle's verdict on every brace, and the commutators and gamma series
against the oracle on every ideal of every brace."""

import pytest

import hopfbrace as hb
import corpus
import oracle

ORDERS = sorted(corpus.GROUPS)


def test_labelled_counts():
    """6, 10 and 314 labelled braces: 4, 6 and 47 classes up to Aut(A)."""
    assert [len(corpus.braces(n)) for n in (4, 6, 8)] == [6, 10, 314]
    assert sum(len(corpus.braces(n)) for n in ORDERS) == 476


@pytest.mark.parametrize("order", ORDERS)
def test_every_brace_is_a_skew_brace(order):
    braces = corpus.braces(order)
    assert len({(name, str(circ)) for name, _, circ in braces}) \
        == len(braces)
    for _, dot, circ in braces:
        assert oracle.is_skew_brace(dot, circ)


@pytest.mark.parametrize("order", ORDERS)
def test_commutators_match_the_oracle_on_every_ideal(order):
    """The oracle gathers every generator family of each definition, so
    a family the engine leaves out must be redundant on all of these."""
    ideals = 0
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
    # 1,595 ideals at orders up to 8, 580 at orders 9, 10 and 12
    assert ideals == {2: 2, 3: 2, 4: 20, 5: 2, 6: 31, 7: 2, 8: 1536,
                      9: 39, 10: 43, 12: 498}[order]
