import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

import hopfbrace as hb
import oracle
from shared import ideals, ladder_brace


@pytest.fixture(scope="module")
def H(radical_c4):
    return hb.HopfBrace(radical_c4)


@pytest.fixture(scope="module")
def Ho(opp_s3):
    return hb.HopfBrace(opp_s3)


def test_generated_subbrace(H, Ho):
    assert hb.generated_subbrace(H, []).carrier == (0,)
    assert hb.generated_subbrace(H, [2]).carrier == (0, 2)
    star_image = np.unique(Ho.base.star_table)
    assert hb.generated_subbrace(Ho, star_image).carrier == (0, 3, 4)


def test_is_strong(H, Ho, catalog):
    assert hb.Subbrace(H, (0, 2)).is_strong()
    # the 2-element subgroup generated by a transposition is moved by
    # conjugation, which is the action in the opposite brace
    assert not hb.generated_subbrace(Ho, [1]).is_strong()
    for desc, brace in catalog:
        HH = hb.HopfBrace(brace)
        assert hb.hopf_center(HH).is_strong()


def test_is_normal_examples(H, Ho, triv_s3):
    assert hb.Subbrace(Ho, (0, 3, 4)).is_normal()
    assert hb.Subbrace(Ho, (0, 3, 4)).is_normal_via_star()
    assert hb.Subbrace(H, (0, 2)).is_normal()
    Ht = hb.HopfBrace(triv_s3)
    sub = hb.generated_subbrace(Ht, [1])
    assert not sub.is_normal()
    assert not sub.is_normal_via_star()


def test_normality_characterizations_agree_on_all_subgroups(catalog):
    for desc, brace in catalog:
        if desc.order > 24:
            continue
        HH = hb.HopfBrace(brace)
        for carrier in oracle.subgroups(brace.dot.table):
            B = hb.Subbrace(HH, carrier)
            assert B.is_normal() == B.is_normal_via_star(), (desc.name, carrier)


def test_every_normal_subbrace_is_strong(catalog):
    for desc, brace in catalog:
        if desc.order > 24:
            continue
        for B in ideals(hb.HopfBrace(brace)):
            assert B.is_strong(), (desc.name, B.carrier)


def test_strong_subbrace_is_circ_and_t_closed(catalog):
    for desc, brace in catalog:
        if desc.order > 24:
            continue
        HH = hb.HopfBrace(brace)
        for carrier in oracle.subgroups(brace.dot.table):
            B = hb.Subbrace(HH, carrier)
            if B.is_strong():
                s = set(carrier)
                assert all(brace.circ.table[a, b] in s for a in s for b in s)
                assert all(brace.circ.inverses[a] in s for a in s)


def test_quotient_radical_c4(H):
    Q, pi = hb.quotient(H, hb.Subbrace(H, (0, 2)))
    assert Q.dim == 2
    assert Q.base.is_trivial()
    assert hb.hopf_kernel(pi).carrier == (0, 2)


def test_quotient_by_trivial_and_whole(H):
    Q, pi = hb.quotient(H, hb.generated_subbrace(H, []))
    assert Q.dim == H.dim and Q.base == H.base
    Q1, _ = hb.quotient(H, hb.whole_subbrace(H))
    assert Q1.dim == 1


def test_quotient_requires_normal(triv_s3):
    Ht = hb.HopfBrace(triv_s3)
    sub = hb.generated_subbrace(Ht, [1])
    with pytest.raises(hb.NormalityError):
        hb.quotient(Ht, sub)


def test_quotient_then_kernel_recovers_every_normal_subbrace(catalog):
    for desc, brace in catalog:
        if desc.order > 12:
            continue
        HH = hb.HopfBrace(brace)
        for B in ideals(HH):
            Q, pi = hb.quotient(HH, B)
            assert hb.hopf_kernel(pi).carrier == B.carrier


def test_hopf_kernel_examples(H):
    ident = hb.HopfMorphism.identity(H)
    assert hb.hopf_kernel(ident).carrier == (0,)
    c2 = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    f = hb.HopfMorphism(H, c2, [0, 1, 0, 1])
    assert hb.hopf_kernel(f).carrier == (0, 2)


def test_hopf_kernel_linear_characterization(H):
    """span of the kernel carrier = {x : (id (x) f) Delta(x) = x (x) 1}
    coefficientwise, checked on the group-like basis and on sums."""
    c2 = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    f = hb.HopfMorphism(H, c2, [0, 1, 0, 1])
    kernel = set(hb.hopf_kernel(f).carrier)
    e_t = c2.base.identity
    for g in range(H.dim):
        # x_1 (x) f(x_2) = x (x) 1 on a group-like means f(g) = identity
        assert (f(g) == e_t) == (g in kernel)
    x = H.basis(0) + H.basis(2).scale(3)
    assert set(x.coeffs) <= kernel
    assert f(x) == c2.basis(0).scale(4)


def test_morphism_application_is_linear(H):
    c2 = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    f = hb.HopfMorphism(H, c2, [0, 1, 0, 1])
    x = H.basis(1) + H.basis(3).scale(2)
    assert f(x) == c2.basis(1).scale(3)


def test_subbrace_requires_subgroup(H):
    with pytest.raises(ValueError):
        hb.Subbrace(H, (0, 1))   # {0,1} is not dot-closed in Z/4


@pytest.mark.parametrize("carrier", [[0, 2.9], [0, 2.0], [0, "2"], [-4, 2],
                                     [0, 4]])
def test_subbrace_carrier_indices_are_refused_not_coerced(H, carrier):
    """Coerced, the first four would give the carrier (0, 2): a float
    truncated, a string parsed, a negative index wrapped; 4 is out of
    range."""
    with pytest.raises((TypeError, IndexError)):
        hb.Subbrace(H, carrier)


@pytest.mark.parametrize("bad", [1.7, "1", Fraction(3, 2)])
def test_morphism_images_are_refused_not_coerced(H, bad):
    c2 = hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(2)))
    with pytest.raises(hb.MorphismError):
        hb.HopfMorphism(H, c2, [0, bad, 0, 1])
    assert hb.HopfMorphism(H, c2, [0, np.int64(1), 0, 1]).images \
        .tolist() == [0, 1, 0, 1]


@pytest.fixture(scope="module")
def C4():
    return hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(4)))


@pytest.mark.parametrize("call", [
    lambda H: hb.Subbrace(H, np.array([-4, 0])),
    lambda H: hb.Subbrace(H, np.array([0, 2, -2])),
    lambda H: hb.Subbrace(H, np.array([True, False, True, False])),
    lambda H: hb.Subbrace(H, [True, False]),
    lambda H: hb.Subbrace(H, np.array([[0, 2], [2, 0]])),
    lambda H: hb.generated_subbrace(H, np.array([-1])),
    lambda H: H.base.dot.is_normal(np.array([0, -2])),
    lambda H: hb.Subbrace(H, [False, 2]),
    lambda H: H.base.dot.subgroup_generated([False, 2]),
    lambda H: H.base.dot.mask([np.True_, 2]),
    lambda H: H.basis(True),
    lambda H: hb.HopfMorphism.identity(H)(True),
    lambda H: hb.HopfMorphism.identity(H)(-1),
], ids=["array-wraps", "array-negative", "array-bool-mask", "bool-list",
        "array-2d", "generated-negative", "is-normal-negative",
        "bool-in-carrier", "bool-generator", "numpy-bool", "basis-bool",
        "morphism-bool", "morphism-negative"])
def test_index_arrays_and_bools_are_refused(C4, call):
    """An index array passes the same check as a list: before, a negative
    entry wrapped, a bool array was read as a mask, a 2-D array was
    flattened and a bool was read as 0 or 1."""
    with pytest.raises((TypeError, IndexError)):
        call(C4)


@pytest.mark.parametrize("images", [[0, True, 2, 3], np.ones(4, dtype=bool),
                                    np.array([0, 1, 2, -1]), [1, 0, 3, 2]])
def test_bool_and_negative_images_are_refused(C4, images):
    with pytest.raises(hb.MorphismError):
        hb.HopfMorphism(C4, C4, images)


def test_morphism_images_are_one_read_only_array(C4):
    given = np.arange(4)
    f = hb.HopfMorphism(C4, C4, given)
    given[1] = 3                           # the map keeps its own copy
    images = f.images
    assert images.dtype == np.int64 and not images.flags.writeable
    assert images.tolist() == [0, 1, 2, 3] and f(np.int64(2)) == 2
    assert f.is_surjective() and hb.hopf_kernel(f).carrier == (0,)
    zero = hb.HopfMorphism(C4, C4, [0] * 4)   # as many images as targets
    assert not zero.is_surjective()
    assert hb.hopf_kernel(zero).carrier == (0, 1, 2, 3)


def test_morphism_equality_compares_source_target_and_images(C4, H):
    assert hb.HopfMorphism(C4, C4, [0, 1, 2, 3]) \
        == hb.HopfMorphism.identity(C4)
    assert hb.HopfMorphism(C4, C4, [0, 3, 2, 1]) \
        != hb.HopfMorphism.identity(C4)
    zero = hb.HopfMorphism(C4, C4, [0] * 4)
    assert zero == hb.HopfMorphism(C4, C4, np.zeros(4, dtype=np.int64))
    assert zero != hb.HopfMorphism(C4, H, [0] * 4)        # another target
    assert zero != hb.HopfMorphism(H, C4, [0] * 4)        # another source
    assert zero != zero.images and not hasattr(zero, "map")


@pytest.mark.parametrize("make", [
    lambda K: K.base.circ, lambda K: K.base, lambda K: K,
    lambda K: hb.Subbrace(K, (0, 2)), hb.HopfMorphism.identity],
    ids=["FiniteGroup", "SkewBrace", "HopfBrace", "Subbrace", "HopfMorphism"])
def test_equality_is_a_python_bool(C4, H, make):
    """``==`` answers a bool, not a ``numpy.bool``, for an equal pair and
    for an unequal pair of the same order."""
    a, twin, other = make(H), make(copy.deepcopy(H)), make(C4)
    assert type(a == twin) is bool and a == twin
    assert type(a == other) is bool and not a == other


def frozen_arrays(H, B, f):
    """Every array of a Hopf brace, a subbrace of it and a morphism from
    it, the lazy ones included, by name."""
    base = H.base
    for name in ("dot", "circ"):
        group = getattr(base, name)
        for slot in ("table", "inverses", "generators", "_conj"):
            yield f"{name}.{slot}", getattr(group, slot)
    for slot in ("lambda_table", "_star", "_normality"):
        yield slot, getattr(base, slot)
    yield "mask", B.mask
    yield "images", f.images


@pytest.mark.parametrize("copier", [
    copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["deepcopy", "pickle"])
def test_copies_keep_every_array_read_only(H, copier):
    """On radical_c4 and on its star-abelianization quotient, whose groups
    are ``FiniteGroup._image``s, with the lazy tables built first."""
    Q, pi = hb.star_abelianization(H)
    for HH, f in ((H, pi), (Q, hb.HopfMorphism.identity(Q))):
        B = hb.socle_annihilator(HH).socle
        for group in (HH.base.dot, HH.base.circ):
            group.conj_table
        HH.base.star_table, HH.base.normality_table
        copies = copier((HH, B, f))
        assert copies == (HH, B, f)
        for (name, arr), (_, orig) in zip(frozen_arrays(*copies),
                                          frozen_arrays(HH, B, f)):
            assert arr is not orig and np.array_equal(arr, orig), name
            assert arr.flags.writeable is False, name


def test_oracle_agreement_on_normality(catalog):
    for desc, brace in catalog:
        if desc.order > 8:
            continue
        HH = hb.HopfBrace(brace)
        dot = brace.dot.table.tolist()
        circ = brace.circ.table.tolist()
        for carrier in oracle.subgroups(brace.dot.table):
            B = hb.Subbrace(HH, carrier)
            assert B.is_normal() == oracle.is_normal_subbrace(dot, circ, carrier)
            assert B.is_normal_via_star() == oracle.is_normal_via_star(
                dot, circ, carrier)


# ------------------------------------- certified quotients, differential

# the benchmark ladder's braces of order 96
LADDER_96 = ("opposite:D48", "opposite:S4*trivial:C4")


@pytest.mark.parametrize("name", [
    *hb.catalog_names(),
    *(pytest.param(name, marks=pytest.mark.slow) for name in LADDER_96)])
def test_certified_quotients_match_validation_and_cosets(name):
    """Every quotient by a normal subbrace equals the fully validated
    brace on its tables, and both tables equal the loop-built coset
    construction."""
    brace = ladder_brace(name) if name in LADDER_96 else hb.lookup(name)[1]
    H = hb.HopfBrace(brace)
    dot, circ = brace.dot.table.tolist(), brace.circ.table.tolist()
    for B in ideals(H):
        Q, pi = hb.quotient(H, B)
        q = Q.base
        full = hb.validate_skew_brace(q.dot.table, q.circ.table)
        assert full == q, B.carrier
        for ours, theirs in ((q.dot, full.dot), (q.circ, full.circ)):
            assert ours.identity == theirs.identity
            assert ours.inverses.tolist() == theirs.inverses.tolist()
            assert not ours.table.flags.writeable
            assert not ours.inverses.flags.writeable
        dot_q, proj = oracle.quotient_by_cosets(dot, B.carrier)
        circ_q, circ_proj = oracle.quotient_by_cosets(circ, B.carrier)
        assert circ_proj == proj == list(pi.images), B.carrier
        assert q.dot.table.tolist() == dot_q, B.carrier
        assert q.circ.table.tolist() == circ_q, B.carrier


@pytest.mark.parametrize("part", ["dot", "circ"])
def test_certificate_refuses_a_tampered_quotient_table(catalog, monkeypatch,
                                                       part):
    """Swap two entries of one quotient table: the projection check (or
    compatibility) refuses it with a witness."""
    image = hb.FiniteGroup._image
    for desc, brace in catalog:
        if desc.order > 24:
            continue
        target = getattr(brace, part)

        def tampered(self, proj, reps):
            q = image(self, proj, reps)
            if self is target:
                table = q.table.copy()
                table[1, [0, 1]] = table[1, [1, 0]]
                table.setflags(write=False)
                q.table = table
            return q

        monkeypatch.setattr(hb.FiniteGroup, "_image", tampered)
        H = hb.HopfBrace(brace)
        for B in ideals(H):
            if B.dim == brace.order:
                continue
            with pytest.raises(hb.ValidationError) as refused:
                hb.quotient(H, B)
            assert refused.value.witness is not None, (desc.name, B.carrier)


def mask_built_subbraces(H):
    """Every subbrace the package builds from its own carrier mask,
    closures and commutators included."""
    soc = hb.socle_annihilator(H)
    yield "socle", soc.socle
    yield "annihilator", soc.annihilator
    yield "hopf_center", hb.hopf_center(H)
    whole = hb.whole_subbrace(H)
    yield "whole", whole
    yield "trivial", hb.generated_subbrace(H, [])
    for kind in (hb.star_abelianization, hb.full_abelianization):
        yield kind.__name__, hb.hopf_kernel(kind(H)[1])
    yield "star_closure", hb.star_closure_subbrace(H)
    for series in (hb.right_series, hb.gamma_series):
        for k, term in enumerate(series(H).terms):
            yield f"{series.__name__}-{k}", term
    yield "relative_commutator", hb.relative_commutator(whole, H)
    yield "huq_commutator", hb.huq_commutator(whole, H)


def test_mask_built_subbraces_equal_the_checked_construction(catalog):
    braces = [brace for _, brace in catalog]
    braces.append(hb.opposite_brace(hb.dihedral_group(48)))
    for brace in braces:
        H = hb.HopfBrace(brace)
        for name, sub in mask_built_subbraces(H):
            checked = hb.Subbrace(H, sub.carrier)
            assert sub == checked, (brace, name)
            assert np.array_equal(sub.mask, checked.mask), (brace, name)
            assert not sub.mask.flags.writeable, (brace, name)
        n, e = H.dim, brace.identity
        for mask in (np.zeros(n, dtype=bool), np.arange(n) != e):
            with pytest.raises(ValueError, match="not a dot-subgroup"):
                hb.Subbrace._of_mask(H, mask)
