"""Each law that the engine checks on a generating set, against its sweep
over the whole group.

Normality, strongness, the center and the socle and annihilator masks
read only the rows of each group's generating set S.  Here each one is
compared with the sweep over every element, on every subgroup that
``oracle.subgroups`` lists, for the catalog, the braces of
``tests/corpus.py`` and the star-abelianization quotient of each: the
quotient's groups are ``FiniteGroup._image``s, whose S is the image of
the source group's.  Each S generates its group, on these braces and on
every quotient of them by an ideal.  The relative and Huq commutators
read each generator family on S; for every ideal, the normal closure of
each family read on S is compared with that of the family read on every
h, one family at a time: the oracle comparison of the commutators sees
only their union, in which one family can cover another.  Tier-1 takes
the catalog and a fixed sample of the corpus; the whole corpus, and the
family check on the benchmark ladder's braces, run under ``slow``.
"""

import numpy as np
import pytest

import corpus
import hopfbrace as hb
import oracle
from shared import WORKLOADS, corpus_braces, ideals, ladder_brace


def assert_generator_checks_are_sweeps(H):
    base, n = H.base, H.dim
    dot, circ = base.dot.table.tolist(), base.circ.table.tolist()
    for group, table in ((base.dot, dot), (base.circ, circ)):
        assert set(np.flatnonzero(group.center()).tolist()) \
            == oracle.center(table)
        for carrier in oracle.subgroups(table):
            assert group.is_normal(carrier) \
                == oracle.is_normal(table, carrier), carrier
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


def commutator_families(H, c):
    """The generator families of the two commutators for the ideal with
    elements c: (name, read on S, read on every h)."""
    base = H.base
    dot, circ, st = base.dot, base.circ, base.star_table
    every = np.arange(H.dim)

    def comm(group, s):                 # [i, s] = i.s.i^-1.s^-1
        return group.table[group.conj_table[c[:, None], s], group.inverses[s]]

    return (("I*S_dot", st[c[:, None], dot.generators], st[c]),
            ("S_circ*I", st[circ.generators[:, None], c], st[:, c]),
            ("[I, S_dot]", comm(dot, dot.generators), comm(dot, every)),
            ("[I, S_circ]_o", comm(circ, circ.generators), comm(circ, every)))


def assert_restricted_families_close_alike(H):
    """For every ideal I, the dot-normal closure of each family read on S
    equals that of the family read on every h in H.  ``huq_commutator``
    proves this for [I, S_circ]_o only together with the other two Huq
    families; alone, it is checked here, not proved."""
    dot, circ = H.base.dot.table.tolist(), H.base.circ.table.tolist()
    for carrier in oracle.subgroups(dot):
        if not oracle.is_normal_subbrace(dot, circ, carrier):
            continue
        c = np.array(sorted(carrier))
        for name, on_s, on_h in commutator_families(H, c):
            assert (H.base.dot.normal_closure(on_s.ravel())
                    == H.base.dot.normal_closure(on_h.ravel())).all(), \
                (name, carrier)


def with_quotients(braces):
    """Each brace's Hopf brace, then its star-abelianization quotient."""
    for brace in braces:
        H = hb.HopfBrace(brace)
        yield H
        yield hb.star_abelianization(H)[0]


def test_catalog(catalog):
    for H in with_quotients(brace for _, brace in catalog):
        assert_generator_checks_are_sweeps(H)
        assert_restricted_families_close_alike(H)


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
        assert_restricted_families_close_alike(H)


def with_every_quotient(H):
    """H, its star and full abelianizations, and H/N for every ideal N:
    every quotient's groups are ``FiniteGroup._image``s, whose S is the
    image pi(S) of the source group's."""
    yield H
    yield hb.star_abelianization(H)[0]
    yield hb.full_abelianization(H)[0]
    for N in ideals(H):
        yield hb.quotient(H, N)[0]


@pytest.mark.parametrize("order", ["catalog", *sorted(CORPUS_SAMPLE)])
def test_every_generating_set_generates(order, catalog):
    """Each group's S generates it and leaves out the identity, on the
    catalog, the corpus sample and all of their quotients above."""
    braces = ((brace for _, brace in catalog) if order == "catalog"
              else corpus_braces(order, CORPUS_SAMPLE[order]))
    for brace in braces:
        for Q in with_every_quotient(hb.HopfBrace(brace)):
            for group in (Q.base.dot, Q.base.circ):
                s = group.generators
                assert group.identity not in s
                assert group._closure(group._mask(s)).all()


@pytest.mark.slow
@pytest.mark.parametrize("order", sorted(corpus.GROUPS))
def test_whole_corpus(order):
    for H in with_quotients(corpus_braces(order)):
        assert_generator_checks_are_sweeps(H)
        assert_restricted_families_close_alike(H)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WORKLOADS.LADDER))
def test_commutator_families_on_the_ladder(name):
    assert_restricted_families_close_alike(hb.HopfBrace(ladder_brace(name)))
