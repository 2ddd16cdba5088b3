"""Series, commutators and the proposition suite at orders 96 and 192.

The series sizes are literals computed once with ``tests/oracle.py``.
The full oracle agreement on both braces is marked ``slow``; run it with
``pytest -m slow``.
"""

import pytest

import hopfbrace as hb
import oracle
from shared import ladder_brace
from test_series import assert_abelianization_kernels_match_the_oracle

# the benchmark ladder's braces of orders 96 and 192 -> series sizes
LADDER = {"opposite:D48": [96, 24, 12, 6, 3, 3],
          "opposite:S4*radical_c4*trivial:C2": [192, 24, 12, 12]}


@pytest.fixture(scope="module", params=sorted(LADDER))
def ladder(request):
    return hb.HopfBrace(ladder_brace(request.param)), LADDER[request.param]


def test_nilpotency_report_sizes(ladder):
    H, sizes = ladder
    report = hb.nilpotency_report(H)
    # the left, right and gamma series all stabilise on the same sizes
    assert report.left.sizes() == sizes
    assert report.right.sizes() == sizes
    assert report.gamma.sizes() == sizes
    assert report.left.stabilized and report.right.stabilized
    assert (report.left.nil_class, report.right.nil_class, report.gamma.nil_class,
            report.adjunction_class) == (None, None, None, None)


def test_propositions_suite_passes(ladder):
    H, _ = ladder
    report = hb.verify_suite(H, "propositions")
    assert report.ok, report.violations
    assert report.basis_checks > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LADDER))
def test_series_and_commutators_agree_with_the_oracle(name):
    brace = ladder_brace(name)
    H = hb.HopfBrace(brace)
    dot, circ = brace.dot.table.tolist(), brace.circ.table.tolist()
    for ours, theirs in ((hb.left_series(H), oracle.left_series(dot, circ)),
                         (hb.right_series(H), oracle.right_series(dot, circ)),
                         (hb.gamma_series(H), oracle.gamma_series(dot, circ))):
        assert [set(t.carrier) for t in ours.terms] == [set(t) for t in theirs]
        for term in ours.terms:
            if not term.is_normal():
                continue
            assert set(hb.relative_commutator(term, H).carrier) \
                == oracle.relative_commutator(dot, circ, term.carrier)
            assert set(hb.huq_commutator(term, H).carrier) \
                == oracle.huq_commutator(dot, circ, term.carrier)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LADDER))
def test_abelianization_kernels_agree_with_the_oracle(name):
    assert_abelianization_kernels_match_the_oracle(ladder_brace(name))
