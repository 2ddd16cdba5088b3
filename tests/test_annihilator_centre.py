"""The annihilator as the categorical centre, checked two ways.

In a semi-abelian category Huq centrality has a largest central normal
subobject, the centre, and the iterated centres Z_1 ⊆ Z_2 ⊆ ..., with
Z_{k+1}/Z_k the centre of H/Z_k, reach H in exactly as many steps as the
lower central series of iterated Huq commutators reaches 0 (Huq 1968,
Q. J. Math. 19; Bonatto-Jedlička 2023 for skew braces).  If the
annihilator Ann(H) is that centre, then:

(a) H -> H/N is Huq-central iff N ⊆ Ann(H);
(b) the upper annihilator series, built through ``quotient``, reaches H
    iff the gamma series reaches 0, and in as many steps.

Neither side shares a code path with the other: (a) reads
``socle_annihilator``'s mask against ``check_central_huq`` on the
quotient tables, (b) iterated quotients and annihilators against
``gamma_series``' star and commutator gathers.  Tier-1 runs both on the
catalog and on every brace and ideal of ``tests/corpus.py``; (b), which
needs no oracle, also runs on the benchmark ladder's orders 96-192
under ``slow``.  The socle is not the relative centre: "N ⊆ Soc(H)"
does not decide the hopfcoc verdict on the corpus, so nothing here
checks it.
"""

from collections import Counter

import numpy as np
import pytest

import corpus
import hopfbrace as hb
import shared
from shared import corpus_braces, ladder_brace

SOURCES = ["catalog", *sorted(corpus.GROUPS)]


def hopf_braces(source):
    braces = ([brace for _, brace in hb.builtin_catalog()]
              if source == "catalog" else corpus_braces(source))
    return [hb.HopfBrace(brace) for brace in braces]


def upper_annihilator_steps(H):
    """The steps of {e} = Z_0 ⊆ Z_1 ⊆ ... up to H, where Z_{k+1} is the
    preimage of Ann(H/Z_k) under the projection, or None when the series
    stops below H."""
    Z, steps = hb.Subbrace(H, [H.base.identity]), 0
    while Z.dim < H.dim:
        Q, pi = hb.quotient(H, Z)
        ann = hb.socle_annihilator(Q).annihilator.mask
        nxt = hb.Subbrace(H, np.flatnonzero(ann[pi.images]))
        if nxt == Z:
            return None
        Z, steps = nxt, steps + 1
    return steps


# (ideals, Huq-central ones); the corpus counts are test_corpus's
IDEALS = {"catalog": (78, 31), 2: (2, 2), 3: (2, 2), 4: (20, 16),
          5: (2, 2), 6: (31, 13), 7: (2, 2), 8: (1536, 637), 9: (39, 29),
          10: (43, 17), 12: (498, 182)}


@pytest.mark.parametrize("source", SOURCES)
def test_huq_central_exactly_inside_the_annihilator(source):
    ideals = Counter()
    for H in hopf_braces(source):
        ann = hb.socle_annihilator(H).annihilator
        for N in shared.ideals(H):
            central = hb.check_central_huq(hb.quotient(H, N)[1])
            assert central.central_huq == ann.contains(N), N.carrier
            ideals[central.central_huq] += 1
    assert (ideals.total(), ideals[True]) == IDEALS[source]


# upper annihilator steps -> braces; None: neither series ends
STEPS = {"catalog": {1: 3, 2: 4, None: 8}, 2: {1: 1}, 3: {1: 1},
         4: {1: 2, 2: 4}, 5: {1: 1}, 6: {1: 1, None: 9}, 7: {1: 1},
         8: {1: 3, 2: 155, 3: 68, None: 88}, 9: {1: 2, 2: 10},
         10: {1: 1, None: 13}, 12: {1: 2, 2: 4, None: 110}}


@pytest.mark.parametrize("source", SOURCES)
def test_upper_annihilator_series_has_the_gamma_length(source):
    steps = Counter()
    for H in hopf_braces(source):
        nil_class = hb.gamma_series(H).nil_class
        found = upper_annihilator_steps(H)
        assert found == (nil_class and nil_class - 1)
        steps[found] += 1
    assert steps == STEPS[source]


# the benchmark ladder's braces -> upper annihilator steps
LADDER = {"opposite:D48": None, "opposite:S4*trivial:C4": None,
          "opposite:D64": 6, "opposite:S4*radical_c4*trivial:C2": None}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_upper_annihilator_series_has_the_gamma_length(name):
    steps, H = LADDER[name], hb.HopfBrace(ladder_brace(name))
    nil_class = hb.gamma_series(H).nil_class
    assert upper_annihilator_steps(H) == steps \
        == (nil_class and nil_class - 1)
