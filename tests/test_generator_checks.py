"""Each law that the engine checks on a generating set, against its sweep
over the whole group.

Normality, strongness, the center and the socle and annihilator masks
read only the rows of each group's greedy generating set S.  Here each
one is compared with the sweep over every element, on every subgroup
that ``oracle.subgroups`` lists, for the catalog, the braces of
``tests/corpus.py`` and the star-abelianization quotient of each: the
quotient's groups are ``FiniteGroup._image``s, which build their S on
first use.  Tier-1 takes the catalog and a fixed sample of the corpus;
the whole corpus runs under ``slow``.
"""

import numpy as np
import pytest

import corpus
import hopfbrace as hb
import oracle


def is_normal_by_loop(table, carrier):
    """a.b.a^-1 in the carrier, for every a in the group and b in it."""
    inv, s = oracle.inverses_of(table), set(carrier)
    return all(table[table[a][b]][inv[a]] in s
               for a in range(len(table)) for b in carrier)


def assert_generator_checks_are_sweeps(H):
    base, n = H.base, H.dim
    dot, circ = base.dot.table.tolist(), base.circ.table.tolist()
    for group, table in ((base.dot, dot), (base.circ, circ)):
        assert set(np.flatnonzero(group.center()).tolist()) \
            == oracle.center(table)
        for carrier in oracle.subgroups(table):
            assert group.is_normal(carrier) \
                == is_normal_by_loop(table, carrier), carrier
    lam = base.lambda_table
    for carrier in oracle.subgroups(dot):
        B = hb.Subbrace(H, carrier)
        assert B.is_normal() \
            == oracle.is_normal_subbrace(dot, circ, carrier), carrier
        assert B.is_strong() == B.mask[lam[:, B.elements]].all(), carrier
    fixed = lam == np.arange(n)                 # lambda_g(b) == b
    central = np.isin(np.arange(n), list(oracle.center(dot)))
    soc = hb.socle_annihilator(H)
    assert (soc.socle.mask == central & fixed.all(axis=1)).all()
    assert (soc.annihilator.mask == soc.socle.mask & fixed.all(axis=0)).all()


def with_quotients(braces):
    """Each brace's Hopf brace, then its star-abelianization quotient."""
    for brace in braces:
        H = hb.HopfBrace(brace)
        yield H
        yield hb.star_abelianization(H)[0]


def corpus_braces(order, picks=None):
    braces = corpus.braces(order)
    for i in range(len(braces)) if picks is None else picks:
        _, dot, circ = braces[i]
        yield hb.validate_skew_brace(dot, circ)


def test_catalog(catalog):
    for H in with_quotients(brace for _, brace in catalog):
        assert_generator_checks_are_sweeps(H)


# Every corpus brace of orders 2-7, 9 and 10, and fixed ones of orders 8
# and 12 by their index in ``corpus.braces``: at order 8, the first C8,
# D4 and Q8 braces (0, 266, 286), and 11, 26 (C4xC2) and 128 (C2^3),
# where strongness read on S_dot would accept a subgroup that is not
# strong (and, on 11 and 26, a dot-normal lambda-stable subgroup is not
# circ-normal); at order 12, 22 (A4), like 128, and the first C12, D6
# and Dic3 braces.
CORPUS_SAMPLE = {**dict.fromkeys((2, 3, 4, 5, 6, 7, 9, 10)),
                 8: (0, 11, 26, 128, 266, 286), 12: (0, 22, 60, 88)}


@pytest.mark.parametrize("order", sorted(CORPUS_SAMPLE))
def test_corpus_sample(order):
    for H in with_quotients(corpus_braces(order, CORPUS_SAMPLE[order])):
        assert_generator_checks_are_sweeps(H)


@pytest.mark.slow
@pytest.mark.parametrize("order", sorted(corpus.GROUPS))
def test_whole_corpus(order):
    for H in with_quotients(corpus_braces(order)):
        assert_generator_checks_are_sweeps(H)
