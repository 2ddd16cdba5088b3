"""Central extensions against their Galois-theoretic definition.

For a surjection f: A -> B of Hopf braces and a reflector I onto a
subcategory, with unit eta, f is central relative to that subcategory iff
the square

    R[f] ------- pi_1 ------> A
      | eta_R                 | eta_A
    I(R[f]) --- I(pi_1) ---> I(A)

is a pullback, where R[f] = {(a, b) : f(a) = f(b)} is the kernel pair of
f and pi_1 its first projection (Janelidze-Kelly 1994, J. Pure Appl.
Algebra 97).  With ``star_abelianization``, the reflector onto
cocommutative Hopf algebras, this is the hopfcoc verdict of
``analyze_extension``; with ``full_abelianization``, onto commutative
cocommutative ones, the Huq verdict.

The two sides share only the abelianizations: ``analyze_extension`` reads
star, dot and circ gathers on K x A, while here R[f] is a new brace of
order |A|.|K|, built as tables and checked by ``validate_skew_brace``,
and the square is a pullback iff r -> (pi_1(r), eta_R(r)) is a bijection
onto A x_{I(A)} I(R[f]).  Tier-1 runs the catalog extensions with
|A|.|K| <= ORDER_CAP and a fixed corpus sample that holds every verdict
pair; the whole corpus runs under ``slow``.
"""

from collections import Counter

import numpy as np
import pytest

import corpus
import hopfbrace as hb
import oracle
from hopfbrace.skewbrace import ORDER_CAP

REFLECTORS = (hb.star_abelianization, hb.full_abelianization)


def kernel_pair(f):
    """R[f] as a Hopf brace on the pairs (a, b) with f(a) = f(b), in
    lexicographic order, both products componentwise, and the first
    projection's images."""
    A = f.source.base
    a, b = np.nonzero(f.images[:, None] == f.images[None, :])
    index = np.full((A.order, A.order), -1)
    index[a, b] = np.arange(len(a))

    def table(t):
        return index[t[a[:, None], a], t[b[:, None], b]]

    R = hb.validate_skew_brace(table(A.dot.table), table(A.circ.table))
    return hb.HopfBrace(R), a


def is_pullback(f, reflector):
    """Whether the square of R[f]'s first projection under ``reflector``
    is a pullback.  I(pi_1) is read off the square, which commutes, and
    checked to be a morphism."""
    R, first = kernel_pair(f)
    IR, eta_R = reflector(R)
    IA, eta_A = reflector(f.source)
    images = np.empty(IR.dim, dtype=np.int64)
    images[eta_R.images] = eta_A.images[first]
    assert (images[eta_R.images] == eta_A.images[first]).all()  # a function
    i_first = hb.HopfMorphism(IR, IA, images)
    pairs = first * IR.dim + eta_R.images
    fibered = np.bincount(eta_A.images, minlength=IA.dim)[i_first.images]
    return len(np.unique(pairs)) == len(pairs) == fibered.sum()


def verdicts(H, carriers):
    """(both, neither, hopfcoc only) over the extensions H -> H/N, one for
    each ideal N among the carriers, each checked against the kernel
    pair's squares on the way; never Huq only, since Huq centrality makes
    k o a = k.a and a o k = a.k, so k*a = a*k = e."""
    found = Counter()
    for carrier in carriers:
        N = hb.Subbrace(H, carrier)
        if not N.is_normal():
            continue
        f = hb.quotient(H, N)[1]
        report = hb.analyze_extension(f)
        pair = (report.central_hopfcoc, report.central_huq)
        assert tuple(is_pullback(f, r) for r in REFLECTORS) == pair, carrier
        found[pair] += 1
    return np.array([found[True, True], found[False, False],
                     found[True, False]])


def test_catalog_extensions(catalog):
    assert sum(verdicts(hb.HopfBrace(brace),
                        [c for c in oracle.subgroups(brace.dot.table)
                         if brace.order * len(c) <= ORDER_CAP])
               for _, brace in catalog).tolist() == [31, 19, 13]


def corpus_verdicts(order, picks=None):
    """The counts of ``verdicts`` over every ideal of the corpus braces of
    this order, or of those at the ``picks`` indices of ``corpus.braces``."""
    braces = corpus.braces(order)
    return sum(verdicts(hb.HopfBrace(hb.validate_skew_brace(dot, circ)),
                        oracle.subgroups(dot))
               for _, dot, circ in (braces if picks is None
                                    else map(braces.__getitem__, picks))
               ).tolist()


VERDICTS = {2: [2, 0, 0], 3: [2, 0, 0], 4: [16, 4, 0], 5: [2, 0, 0],
            6: [13, 16, 2], 7: [2, 0, 0], 8: [637, 885, 14], 9: [29, 10, 0],
            10: [17, 24, 2], 12: [182, 302, 14]}
# Every brace of orders 2-7, 9 and 10, and at order 8 the braces 11
# (C4xC2) and 38 (C2^3) of ``corpus.braces``, each with an ideal that a
# Huq check without k o a = k.a would call central.
SAMPLE = {**dict.fromkeys((2, 3, 4, 5, 6, 7, 9, 10)), 8: (11, 38)}
SAMPLE_VERDICTS = {**VERDICTS, 8: [4, 6, 0]}


@pytest.mark.parametrize("order", sorted(SAMPLE))
def test_corpus_sample(order):
    assert corpus_verdicts(order, SAMPLE[order]) == SAMPLE_VERDICTS[order]


def test_corpus_sample_has_every_verdict_pair():
    assert all(sum(np.array(SAMPLE_VERDICTS[order]) for order in SAMPLE))


@pytest.mark.slow
@pytest.mark.parametrize("order", sorted(corpus.GROUPS))
def test_whole_corpus(order):
    assert corpus_verdicts(order) == VERDICTS[order]
