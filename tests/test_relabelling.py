"""Relabelling equivariance: renaming the carrier of a brace renames every
carrier the engine computes from it and leaves every space dimension as
it is.  The renaming is the benchmark's own: a seeded shuffle that moves
the identity off 0, so nothing may read an identity, a kernel or a coset
representative off index 0.  Every catalog and corpus brace has its
identity at 0, so only a renaming shows such a fault.  Tier-1 renames the
catalog; ``slow`` renames all 476 braces of ``tests/corpus.py``."""

import pytest

import corpus
import hopfbrace as hb
from shared import WORKLOADS, corpus_braces

SEED = 1


def carriers(H):
    """Every carrier computed from H, by name, and the subbraces that the
    commutators are taken of."""
    out, args = {}, {}
    for kind in ("left", "right", "gamma"):
        series = getattr(hb, f"{kind}_series")(H)
        for k, (term, gens) in enumerate(zip(series.terms,
                                             series.generators)):
            out[f"{kind}-{k}"] = term.carrier
            out[f"{kind}-{k}-generators"] = tuple(sorted(gens))
            args[f"{kind}-{k}"] = term
    soc = hb.socle_annihilator(H)
    out["socle"], out["annihilator"] = soc.socle.carrier, soc.annihilator.carrier
    out["center"] = hb.hopf_center(H).carrier
    for name in ("star_abelianization", "full_abelianization"):
        Q, pi = getattr(hb, name)(H)
        out[name] = hb.hopf_kernel(pi).carrier
    return out, args


def dims(H):
    soc, coin = hb.socle_annihilator(H), hb.coincidence_report(H)
    return (soc.socle_space.dim, soc.annihilator_space.dim,
            coin.star_trivial_space.dim, coin.coincidence_space.dim,
            hb.star_abelianization(H)[0].dim,
            hb.full_abelianization(H)[0].dim)


def assert_relabelling_renames_every_carrier(brace, name):
    perm = WORKLOADS.relabelling(brace.order, brace.identity, SEED, name)
    H, R = hb.HopfBrace(brace), hb.HopfBrace(WORKLOADS.relabel(brace, perm))
    assert R.base.identity != 0

    def rename(carrier):
        return tuple(sorted(perm[g] for g in carrier))

    ours, args = carriers(H)
    theirs, _ = carriers(R)
    assert theirs == {key: rename(c) for key, c in ours.items()}
    for key, term in args.items():
        image = hb.Subbrace(R, rename(term.carrier))
        if key.startswith("right"):
            assert (hb.relative_commutator(image, R).carrier
                    == rename(hb.relative_commutator(term, H).carrier)), key
        if key.startswith("gamma"):
            assert (hb.huq_commutator(image, R).carrier
                    == rename(hb.huq_commutator(term, H).carrier)), key
    assert dims(R) == dims(H)


@pytest.mark.parametrize("name", hb.catalog_names())
def test_relabelling_renames_every_carrier(name):
    assert_relabelling_renames_every_carrier(hb.lookup(name)[1], name)


@pytest.mark.slow
@pytest.mark.parametrize("order", sorted(corpus.GROUPS))
def test_corpus_relabelling_renames_every_carrier(order):
    for i, brace in enumerate(corpus_braces(order)):
        assert_relabelling_renames_every_carrier(brace, f"{order}/{i}")
