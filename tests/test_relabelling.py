"""Relabelling equivariance: renaming the carrier of a brace renames every
carrier the engine computes from it and leaves every space dimension as
it is.  The renaming moves the identity off 0, so nothing may read an
identity, a kernel or a coset representative off index 0."""

import random

import numpy as np
import pytest

import hopfbrace as hb


def relabelled(brace, seed):
    """The brace with g renamed perm[g], revalidated, and perm: a seeded
    shuffle with perm[identity] != 0."""
    rng = random.Random(seed)
    perm = list(range(brace.order))
    while perm[brace.identity] == 0:
        rng.shuffle(perm)
    p = np.array(perm)
    q = np.argsort(p)

    def table(t):
        return p[t[np.ix_(q, q)]]

    return hb.validate_skew_brace(table(brace.dot.table),
                                  table(brace.circ.table),
                                  identity=perm[brace.identity]), perm


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
        out[f"{name}-kernel"] = tuple(np.flatnonzero(pi.kernel()).tolist())
    return out, args


def dims(H):
    soc, coin = hb.socle_annihilator(H), hb.coincidence_report(H)
    return (soc.socle_space.dim, soc.annihilator_space.dim,
            coin.star_trivial_space.dim, coin.coincidence_space.dim,
            hb.star_abelianization(H)[0].dim,
            hb.full_abelianization(H)[0].dim)


@pytest.mark.parametrize("name", hb.catalog_names())
def test_relabelling_renames_every_carrier(name):
    brace = hb.lookup(name)[1]
    renamed, perm = relabelled(brace, name)
    H, R = hb.HopfBrace(brace), hb.HopfBrace(renamed)
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
