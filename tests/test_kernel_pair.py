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

The same square defines the commutators: [K, A] relative to a reflector
is the least ideal N inside the ideal K for which A/N -> A/K is central
(Everaert-Gran-Van der Linden 2008, Adv. Math. 217).  So the least
central N is ``relative_commutator(K, A)`` for ``star_abelianization``
and ``huq_commutator(K, A)`` for ``full_abelianization``, the abstract's
closing claim; K runs over every ideal, not only the series terms.

The two sides share only the abelianizations: ``analyze_extension`` reads
star, dot and circ gathers on K x A, while here R[f] is a new brace of
order |A|.|K|, built as tables and checked by ``validate_skew_brace``,
and the square is a pullback iff r -> (pi_1(r), eta_R(r)) is a bijection
onto A x_{I(A)} I(R[f]).  Tier-1 runs the catalog extensions with
|A|.|K| <= ORDER_CAP and a fixed corpus sample that holds every verdict
pair; the whole corpus runs under ``slow``.  The commutator checks run
on the same braces and one more order-12 brace; on the catalog they keep
the (K, N) with |A/N|.|K/N| <= ORDER_CAP.
"""

from collections import Counter

import numpy as np
import pytest

import corpus
import hopfbrace as hb
from hopfbrace.skewbrace import ORDER_CAP
from shared import corpus_braces, ideals

REFLECTORS = (hb.star_abelianization, hb.full_abelianization)
COMMUTATORS = (hb.relative_commutator, hb.huq_commutator)


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


def verdicts(H, kernels):
    """(both, neither, hopfcoc only) over the extensions H -> H/N, one for
    each ideal N among the kernels, each checked against the kernel
    pair's squares on the way; never Huq only, since Huq centrality makes
    k o a = k.a and a o k = a.k, so k*a = a*k = e."""
    found = Counter()
    for N in kernels:
        f = hb.quotient(H, N)[1]
        report = hb.analyze_extension(f)
        pair = (report.central_hopfcoc, report.central_huq)
        assert tuple(is_pullback(f, r) for r in REFLECTORS) == pair, \
            N.carrier
        found[pair] += 1
    return np.array([found[True, True], found[False, False],
                     found[True, False]])


def test_catalog_extensions(catalog):
    hopf = [hb.HopfBrace(brace) for _, brace in catalog]
    assert sum(verdicts(H, [N for N in ideals(H)
                            if H.dim * N.dim <= ORDER_CAP])
               for H in hopf).tolist() == [31, 19, 13]


def corpus_verdicts(order, picks=None):
    """The counts of ``verdicts`` over every ideal of the corpus braces of
    this order, or of those at the ``picks`` indices of ``corpus.braces``."""
    hopf = map(hb.HopfBrace, corpus_braces(order, picks))
    return sum(verdicts(H, ideals(H)) for H in hopf).tolist()


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


# ------------------------------------- commutators as least central ideals

def least_central(H, bound=None):
    """For each ideal K of H and each reflector, the ideals N inside K
    for which H/N -> H/K is central, among those with |H/N|.|K/N| <=
    ``bound`` if one is given, are exactly those that hold the matching
    commutator [K, H]; when no N inside K is left out, [K, H] is their
    least element.  Returns the number of (K, N) pairs and of K with
    every N inside it kept."""
    normal = ideals(H)
    quotients = {N.carrier: hb.quotient(H, N) for N in normal}
    pairs = whole = 0
    for K in normal:
        inside = [N for N in normal if K.contains(N)]
        kept = [N for N in inside if bound is None
                or (H.dim // N.dim) * (K.dim // N.dim) <= bound]
        QK, pi_K = quotients[K.carrier]
        maps = []                                   # H/N -> H/K
        for N in kept:
            QN, pi_N = quotients[N.carrier]
            images = np.empty(QN.dim, dtype=np.int64)
            images[pi_N.images] = pi_K.images
            assert (images[pi_N.images] == pi_K.images).all()
            maps.append(hb.HopfMorphism(QN, QK, images))
        for reflector, commutator in zip(REFLECTORS, COMMUTATORS):
            C = commutator(K, H)
            central = [N for N, f in zip(kept, maps)
                       if is_pullback(f, reflector)]
            assert central == [N for N in kept if N.contains(C)], \
                (K.carrier, reflector.__name__)
            if len(kept) == len(inside):
                assert [N for N in central
                        if all(M.contains(N) for M in central)] == [C]
        pairs += len(kept)
        whole += len(kept) == len(inside)
    return pairs, whole


def test_catalog_commutators_are_least_central(catalog):
    found = [least_central(hb.HopfBrace(brace), ORDER_CAP)
             for _, brace in catalog]
    assert np.sum(found, axis=0).tolist() == [231, 63]   # of 78 ideals


def corpus_least_central(order, picks=None):
    return np.sum([least_central(hb.HopfBrace(brace))
                   for brace in corpus_braces(order, picks)], axis=0).tolist()


# (K, N) pairs per order; with no bound, every ideal K keeps every N
PAIRS = {2: 3, 3: 3, 4: 42, 5: 3, 6: 63, 7: 3, 8: 4268, 9: 81, 10: 87,
         12: 1322}
# ``SAMPLE`` and, at order 12, brace 3 (on C12, with S_dot = [1] and
# S_circ = [1, 2]): a generator family read on S_dot where S_circ belongs
# misses its commutators only there, in Tier-1's reach.
COMMUTATOR_SAMPLE = {**SAMPLE, 12: (3,)}
SAMPLE_PAIRS = {**PAIRS, 8: 28, 12: 10}
SAMPLE_IDEALS = {**{order: sum(SAMPLE_VERDICTS[order]) for order in SAMPLE},
                 12: 4}


@pytest.mark.parametrize("order", sorted(COMMUTATOR_SAMPLE))
def test_corpus_sample_commutators_are_least_central(order):
    assert corpus_least_central(order, COMMUTATOR_SAMPLE[order]) == [
        SAMPLE_PAIRS[order], SAMPLE_IDEALS[order]]


@pytest.mark.slow
@pytest.mark.parametrize("order", sorted(corpus.GROUPS))
def test_whole_corpus_commutators_are_least_central(order):
    assert corpus_least_central(order) == [PAIRS[order],
                                           sum(VERDICTS[order])]
