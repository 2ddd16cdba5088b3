"""Direct products: every invariant of A x B from its factors', with no
oracle, so the checks reach orders 16-200, where the corpus has none.

In ``direct_product(A, B)`` the pair (a, b) is index a.|B| + b, both
products, lambda and star are componentwise, and every generator family
holds the identity.  So, for ideals I and N of A and J and M of B:

- each left, right and gamma term of A x B is the product of the
  factors' terms at that index, where a factor whose series has stopped
  repeats its last term, and the series of A x B stops where that
  sequence first repeats or is trivial;
- the socle, annihilator and center of A x B are the factors' products;
- both abelianizations' dimensions multiply;
- the relative and Huq commutators of I x J in A x B are [I, A] x [J, B];
- ``quotient(A x B, N x M)`` has exactly the tables of
  ``direct_product(A/N, B/M)``: its coset leaders are the pairs of the
  factors' leaders, in lexicographic order;
- each centrality verdict of A x B -> A/N x B/M is the conjunction of
  the factors' verdicts for A -> A/N and B -> B/M.

I and J run over the right-series terms; N and M over those, the
annihilator and the star closure.  Tier-1 takes a fixed sample in which
every corpus order is a factor, and the catalog's three products; ``slow``
takes a seeded sample of corpus and catalog pairs with |A|.|B| <= 200.
The samples are fixed: a failure is a finding, never a reason to draw
another sample.
"""

import random
from math import prod

import numpy as np
import pytest

import corpus
import hopfbrace as hb
from hopfbrace.skewbrace import ORDER_CAP
from shared import corpus_braces

SLOW_PAIRS = 400
SERIES = (hb.left_series, hb.right_series, hb.gamma_series)
COMMUTATORS = (hb.relative_commutator, hb.huq_commutator)
ABELIANIZATIONS = (hb.star_abelianization, hb.full_abelianization)


def pairs(X, Y, nb):
    """The carrier X x Y of A x B, for a B of order ``nb``."""
    return tuple(x * nb + y for x in X for y in Y)


def product_terms(ta, tb, nb):
    """The carriers of the series of A x B from the factors' carriers."""
    out = []
    for k in range(len(ta) + len(tb) + 1):
        out.append(pairs(ta[min(k, len(ta) - 1)], tb[min(k, len(tb) - 1)],
                         nb))
        if len(out[-1]) == 1 or k and out[-1] == out[-2]:
            return out


def quotient_ideals(H):
    """Distinct ideals to divide by: the right-series terms, the
    annihilator and the star closure."""
    subs = [*hb.right_series(H).terms, hb.socle_annihilator(H).annihilator,
            hb.star_closure_subbrace(H)]
    return list({N.carrier: N for N in subs}.values())


def verdicts(f):
    report = hb.analyze_extension(f)
    return report.central_hopfcoc, report.central_huq


def check_product(A, B):
    """Every statement of the module docstring on A x B; returns the
    number of (I, J) and of (N, M) pairs checked."""
    HA, HB = hb.HopfBrace(A), hb.HopfBrace(B)
    P = hb.HopfBrace(hb.direct_product(A, B))
    nb = B.order

    for series in SERIES:
        ta, tb, tp = ([t.carrier for t in series(H).terms]
                      for H in (HA, HB, P))
        assert tp == product_terms(ta, tb, nb), series.__name__

    sa, sb, sp = map(hb.socle_annihilator, (HA, HB, P))
    for name in ("socle", "annihilator"):
        assert getattr(sp, name).carrier == pairs(
            getattr(sa, name).carrier, getattr(sb, name).carrier, nb), name
    assert hb.hopf_center(P).carrier == pairs(
        hb.hopf_center(HA).carrier, hb.hopf_center(HB).carrier, nb)
    for abelianization in ABELIANIZATIONS:
        assert abelianization(P)[0].dim == (abelianization(HA)[0].dim
                                            * abelianization(HB)[0].dim)

    ra, rb = hb.right_series(HA).terms, hb.right_series(HB).terms
    for I in ra:
        for J in rb:
            IJ = hb.Subbrace(P, pairs(I.carrier, J.carrier, nb))
            for commutator in COMMUTATORS:
                assert commutator(IJ, P).carrier == pairs(
                    commutator(I, HA).carrier, commutator(J, HB).carrier,
                    nb), (commutator.__name__, I.carrier, J.carrier)

    qa, qb = ({N.carrier: hb.quotient(H, N) for N in quotient_ideals(H)}
              for H in (HA, HB))
    for N, (QN, pi_N) in qa.items():
        for M, (QM, pi_M) in qb.items():
            Q, pi = hb.quotient(P, hb.Subbrace(P, pairs(N, M, nb)))
            D = hb.direct_product(QN.base, QM.base)
            assert np.array_equal(Q.base.dot.table, D.dot.table)
            assert np.array_equal(Q.base.circ.table, D.circ.table)
            assert verdicts(pi) == tuple(
                a and b for a, b in zip(verdicts(pi_N), verdicts(pi_M))), \
                (N, M)
    return len(ra) * len(rb), len(qa) * len(qb)


# ((order, index) of A, (order, index) of B) in ``corpus.braces``: every
# corpus order is a factor, and most factors are not trivial braces.
SAMPLE = (((2, 0), (12, 3)), ((3, 0), (10, 3)), ((4, 5), (9, 4)),
          ((5, 0), (8, 38)), ((6, 7), (7, 0)), ((8, 11), (12, 21)),
          ((10, 7), (4, 1)), ((12, 70), (6, 5)), ((12, 3), (12, 41)))
CATALOG_PRODUCTS = (("radical_c4", "radical_c4"),
                    ("radical_c4", "trivial:S3"),
                    ("opposite:S4", "trivial:C2"))


def test_sample_has_every_corpus_order_as_a_factor():
    assert {order for pair in SAMPLE for order, _ in pair} == set(
        corpus.GROUPS)


@pytest.mark.parametrize("a, b", SAMPLE, ids=lambda x: "%d-%d" % x)
def test_corpus_sample(a, b):
    (A,), (B,) = (corpus_braces(order, [i]) for order, i in (a, b))
    assert all(check_product(A, B))


@pytest.mark.parametrize("names", CATALOG_PRODUCTS, ids=",".join)
def test_catalog_products(by_name, names):
    (_, A), (_, B) = (by_name[name] for name in names)
    assert hb.direct_product(A, B) == by_name["prod:" + ",".join(names)][1]
    assert all(check_product(A, B))


def seeded_sample(count, seed=1401):
    """``count`` pairs of corpus and catalog braces (products left out)
    with |A|.|B| <= ORDER_CAP, drawn with a fixed seed."""
    factors = [brace for order in sorted(corpus.GROUPS)
               for brace in corpus_braces(order)]
    factors += [brace for desc, brace in hb.builtin_catalog()
                if desc.construction != "product"]
    rng, out = random.Random(seed), []
    while len(out) < count:
        pair = rng.sample(factors, 2)
        if prod(f.order for f in pair) <= ORDER_CAP:
            out.append(pair)
    return out


@pytest.mark.slow
def test_seeded_sample():
    found = [check_product(A, B) for A, B in seeded_sample(SLOW_PAIRS)]
    assert all(map(all, found))


