import operator
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import hopfbrace as hb
import reference_hopf as ref
from hopfbrace.hopf import random_element


@pytest.fixture(scope="module")
def H(radical_c4):
    return hb.HopfBrace(radical_c4)


def test_group_like_products(H):
    d1 = H.basis(1)
    assert H.circ(d1, d1) == H.basis(0)        # 1 o 1 = 0 in the order-4 brace
    assert H.dot(d1, H.basis(3)) == H.one()    # 1 + 3 = 0


def test_bilinearity_of_dot(H):
    x = H.element({0: 1, 1: 2})
    y = H.basis(2)
    assert H.dot(x, y) == H.basis(2) + H.basis(3).scale(2)


def test_random_element_matches_the_fraction_construction(catalog):
    """Int numerators over the lcm of the drawn denominators give the
    element that one Fraction per coefficient gave, from the same draws:
    the two RNG streams end in the same state."""
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        ours, theirs = random.Random(desc.name), random.Random(desc.name)
        for _ in range(300):
            x, y = random_element(H, ours), ref.random_element(H, theirs)
            assert x == y, desc.name
        assert ours.getstate() == theirs.getstate(), desc.name


def test_comultiply_counit(H):
    g = H.basis(3)
    assert H.comultiply(g) == hb.Tensor2({(3, 3): 1})
    x = H.basis(1).scale(3) - H.basis(2)
    assert H.counit(x) == 2
    # counit law (eps (x) id) Delta = id on random elements
    rng = random.Random(11)
    for _ in range(20):
        x = random_element(H, rng)
        total = H.element({})
        for (i, j), c in H.comultiply(x).items():
            total = total + H.basis(j).scale(c)   # eps(g_i) = 1
        assert total == x


def test_cocommutativity(H):
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(H, rng) + random_element(H, rng)
        t = H.comultiply(x)
        assert hb.Tensor2({(j, i): c for (i, j), c in t.items()}) == t


def test_antipodes(H):
    assert H.antipode_dot(H.basis(1)) == H.basis(3)
    # every element of the order-4 brace is its own circ-inverse
    for a in range(4):
        assert H.antipode_circ(H.basis(a)) == H.basis(a)
    assert H.antipode_dot(H.one()) == H.one()
    rng = random.Random(7)
    for _ in range(20):
        x = random_element(H, rng)
        assert H.antipode_dot(H.antipode_dot(x)) == x
        assert H.antipode_circ(H.antipode_circ(x)) == x


def test_antipode_laws(H):
    rng = random.Random(13)
    for _ in range(20):
        x = random_element(H, rng)
        for mul, anti in ((H.dot, H.antipode_dot), (H.circ, H.antipode_circ)):
            left = H.element({})
            right = H.element({})
            for g, c in x.coeffs.items():
                left = left + mul(anti(H.basis(g)), H.basis(g)).scale(c)
                right = right + mul(H.basis(g), anti(H.basis(g))).scale(c)
            expected = H.one().scale(H.counit(x))
            assert left == expected and right == expected


def test_act_and_star_group_like_examples(H):
    assert H.act(H.basis(1), H.basis(1)) == H.basis(3)
    assert H.star(H.basis(1), H.basis(1)) == H.basis(2)
    for b in range(4):
        assert H.star(H.basis(2), H.basis(b)) == H.basis(0)
    triv = hb.HopfBrace(hb.trivial_brace(hb.symmetric_group(3)))
    x = triv.element({1: 2, 4: -1})
    y = triv.basis(5)
    assert triv.act(x, y) == y.scale(triv.counit(x))
    assert triv.star(x, y) == triv.one().scale(triv.counit(x))


def test_group_like_faithfulness_everywhere(catalog):
    """Hopf-level star/act agree with the set-level tables on all pairs."""
    for desc, brace in catalog:
        H = hb.HopfBrace(brace)
        for a in range(brace.order):
            for b in range(brace.order):
                assert H.star(H.basis(a), H.basis(b)) \
                    == H.basis(brace.star_table[a, b])
                assert H.act(H.basis(a), H.basis(b)) \
                    == H.basis(brace.lambda_table[a, b])


def test_bilinearity_random(H):
    rng = random.Random(23)
    for op in (H.dot, H.circ, H.star, H.act):
        for _ in range(10):
            x, y, z = (random_element(H, rng) for _ in range(3))
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            assert op(x + y, z) == op(x, z) + op(y, z)
            assert op(x, y + z) == op(x, y) + op(x, z)
            assert op(x.scale(c), y) == op(x, y).scale(c)
            assert op(x, y.scale(c)) == op(x, y).scale(c)


def test_element_construction_and_equality(H):
    assert H.element({1: Fraction(1, 2), 2: 0}) == H.basis(1).scale(Fraction(1, 2))
    assert H.element({}) == H.basis(1).scale(0)
    assert not (H.basis(1) - H.basis(1)).nums
    with pytest.raises(IndexError):
        H.element({9: 1})
    with pytest.raises(IndexError):
        H.basis(4)


def test_hopf_brace_equality(radical_c4, monkeypatch):
    """Equal tables make equal Hopf braces, and a brace equals itself
    without comparing its tables."""
    H = hb.HopfBrace(radical_c4)
    twin = hb.HopfBrace(hb.radical_c4_brace())
    assert twin.base is not radical_c4 and twin == H
    assert H != hb.HopfBrace(hb.trivial_brace(hb.cyclic_group(4)))
    assert repr(H) == "HopfBrace(dim=4)"

    def no_table_comparison(*_):
        raise AssertionError("tables compared")

    monkeypatch.setattr(hb.SkewBrace, "__eq__", no_table_comparison)
    assert H == H and not H != H


def test_basis_mismatch_rejected(H):
    other = hb.HopfBrace(hb.trivial_brace(hb.symmetric_group(3)))
    for g in (4, 5):            # the first index outside, and one more
        with pytest.raises(IndexError, match="outside dimension 4"):
            H.dot(H.basis(1), other.basis(g))


NON_RATIONALS = [0.1, 2.9, Decimal("0.5"), "3/7", "3", 1 + 0j, None,
                 True, False]


@pytest.mark.parametrize("value", NON_RATIONALS, ids=repr)
def test_non_rational_scalars_are_refused(H, value):
    with pytest.raises(TypeError):
        H.element({1: value})
    with pytest.raises(TypeError):
        H.basis(1).scale(value)
    with pytest.raises(TypeError):
        hb.Tensor2({(1, 1): value})


@pytest.mark.parametrize("other", [hb.Tensor2({(0, 0): 1}), 1, Fraction(1)],
                         ids=["tensor2", "int", "fraction"])
def test_elements_add_and_subtract_only_elements(other):
    """``+`` and ``-`` take an ``Element`` on both sides: a ``Tensor2``
    would be merged into a corrupt vector, a scalar has no basis."""
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(hb.Element({0: 1}), other)


@pytest.mark.parametrize("key", [1.7, 1.0, "1", None, True, np.True_])
def test_non_integer_indices_are_refused(H, key):
    with pytest.raises(TypeError):
        H.element({key: 1})
    with pytest.raises(TypeError):
        H.basis(key)
    with pytest.raises(TypeError):
        hb.Tensor2({(key, 1): 1})
    with pytest.raises(TypeError):
        hb.Tensor2({(1, key): 1})
    with pytest.raises(TypeError):
        hb.HopfMorphism.identity(H)(key)


@pytest.mark.parametrize("key", [-1, -4, np.int64(-1)])
def test_negative_indices_are_refused(H, key):
    """``hopf._basis_index`` refuses a negative index with IndexError when
    an ``Element`` or ``Tensor2`` is built, directly or through
    ``HopfBrace.element``, so that no gather wraps it round to the end."""
    for call in (lambda: hb.Element({key: 1}),
                 lambda: H.element({key: 1}),
                 lambda: hb.Tensor2({(key, 0): 1}),
                 lambda: hb.Tensor2({(0, key): 1})):
        with pytest.raises(IndexError):
            call()


def test_integer_like_scalars_and_indices_are_exact(H):
    x = H.element({np.int64(1): np.int64(3), 2: Fraction(6, 4),
                   3: np.uint8(1)})
    assert x == H.element({1: 3, 2: Fraction(3, 2), 3: 1})
    assert all(type(n) is int for n in x.nums.values())
    assert x.coeffs == {1: 3, 2: Fraction(3, 2), 3: 1}
    assert all(type(c) is Fraction for c in x.coeffs.values())
    assert hb.HopfMorphism.identity(H)(np.int64(2)) == 2


def test_morphism_refuses_indices_outside_the_source(H):
    f = hb.HopfMorphism.identity(H)
    for g in (-1, 4):
        with pytest.raises(IndexError):
            f(g)
    larger = hb.HopfBrace(hb.trivial_brace(hb.symmetric_group(3)))
    with pytest.raises(IndexError, match="outside dimension 4"):
        f(larger.basis(5))


def test_rational_elements_keep_one_reduced_denominator(H):
    x = H.element([(1, Fraction(1, 6)), (2, Fraction(1, 4)), (1, Fraction(1, 6))])
    assert (x.nums, x.den) == ({1: 4, 2: 3}, 12)
    assert repr(x) == "1/3*g1 + 1/4*g2"
    assert repr(H.element({1: Fraction(3, 2), 2: 1, 3: -1})) \
        == "3/2*g1 + g2 + -1*g3"
    assert repr(H.comultiply(H.basis(3))) == "Tensor2({(3, 3): Fraction(1, 1)})"
    y = x.scale(12)
    assert (y.nums, y.den) == ({1: 4, 2: 3}, 1)
    assert (H.basis(1).scale(0).nums, H.element({}).den) == ({}, 1)
    with pytest.raises(AttributeError):
        x.den = 2



def test_there_is_no_characteristic_argument(radical_c4):
    """Scalars are rationals only: no field is passed by position or name."""
    for call in (lambda: hb.HopfBrace(radical_c4, 5),
                 lambda: hb.HopfBrace(radical_c4, characteristic=5),
                 lambda: hb.Element({1: 1}, 5),
                 lambda: hb.Element({1: 1}, characteristic=5)):
        with pytest.raises(TypeError):
            call()
