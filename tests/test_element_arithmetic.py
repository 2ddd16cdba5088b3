"""Element arithmetic against the dict-of-scalars reference, and the
canonical form of every result, over the catalog."""

import functools
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import hopfbrace as hb
import oracle
import reference_hopf as ref
from hopfbrace.verify import _element_ops

CATALOG = {desc.name: brace for desc, brace in hb.builtin_catalog()}


@functools.cache
def hopf(name: str) -> hb.HopfBrace:
    return hb.HopfBrace(CATALOG[name])


@functools.cache
def projections(name: str) -> tuple:
    """The quotient maps of the brace onto each of its normal subbraces."""
    H = hopf(name)
    normal = (hb.Subbrace(H, c)
              for c in oracle.subgroups(CATALOG[name].dot.table))
    return tuple(hb.quotient(H, B)[1] for B in normal if B.is_normal())


SCALARS = st.one_of(st.integers(-40, 40),
                    st.builds(Fraction, st.integers(-40, 40),
                              st.integers(1, 36)),
                    st.builds(Fraction, st.integers(-10**30, 10**30),
                              st.integers(1, 10**20)))


def term_lists(n, max_size=5):
    """(index, scalar) pairs; an index may repeat and a scalar may be 0."""
    return st.lists(st.tuples(st.integers(0, n - 1), SCALARS),
                    max_size=max_size)


@st.composite
def cases(draw, size=3):
    name = draw(st.sampled_from(sorted(CATALOG)))
    H = hopf(name)
    pairs = [draw(term_lists(H.dim)) for _ in range(size)]
    return name, H, pairs


def assert_canonical(x):
    assert all(type(n) is int for n in x.nums.values())
    assert type(x.den) is int and x.den > 0
    assert all(x.nums.values())
    assert gcd(x.den, *x.nums.values()) == 1


def built(H, pairs):
    """The element of the pairs and its reference, checked to agree."""
    x, rx = H.element(pairs), ref.make(pairs)
    assert_canonical(x)
    assert x.coeffs == rx
    return x, rx


@settings(max_examples=120, deadline=None)
@given(cases())
def test_products_agree_with_the_reference(case):
    _, H, (xs, ys, _) = case
    base = H.base
    (x, rx), (y, ry) = built(H, xs), built(H, ys)
    for op, table in ((H.dot, base.dot.table), (H.circ, base.circ.table),
                      (H.act, base.lambda_table), (H.star, base.star_table)):
        got = op(x, y)
        assert_canonical(got)
        assert got.coeffs == ref.bilinear(table, rx, ry), op.__name__


@settings(max_examples=120, deadline=None)
@given(cases(), st.data())
def test_linear_operations_agree_with_the_reference(case, data):
    _, H, (xs, ys, _) = case
    (x, rx), (y, ry) = built(H, xs), built(H, ys)
    c = data.draw(SCALARS)
    results = {
        "add": (x + y, ref.add(rx, ry)),
        "sub": (x - y, ref.add(rx, ref.scale(ry, -1))),
        "scale": (x.scale(c), ref.scale(rx, c)),
        "S": (H.antipode_dot(x), ref.relabel(H.base.dot.inverses, rx)),
        "T": (H.antipode_circ(x), ref.relabel(H.base.circ.inverses, rx)),
        "comultiply": (H.comultiply(x), ref.comultiply(rx)),
        "pair": (_element_ops(H)["pair"](x, y), ref.pair(rx, ry)),
    }
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.coeffs == want, name
    eps = H.counit(x)
    assert eps == ref.counit(rx)
    assert type(eps) is Fraction


@settings(max_examples=60, deadline=None)
@given(cases(size=1), st.data())
def test_morphism_images_agree_with_the_reference(case, data):
    name, H, (xs,) = case
    pi = data.draw(st.sampled_from(projections(name)))
    x, rx = built(H, xs)
    got = pi(x)
    assert_canonical(got)
    assert got.coeffs == ref.relabel(pi.images, rx)


@settings(max_examples=120, deadline=None)
@given(cases())
def test_equal_elements_built_by_different_routes_hash_equal(case):
    _, H, (xs, ys, zs) = case
    x, y, z = (H.element(t) for t in (xs, ys, zs))
    by_terms = H.element({})
    for g, c in xs:
        by_terms = by_terms + H.basis(g).scale(c)
    routes = [
        (x, by_terms),
        (x + y, y + x),
        ((x + y) + z, x + (y + z)),
        (x - x, H.element({})),
        (x.scale(2).scale(Fraction(1, 2)), x),
        (H.dot(x + y, z), H.dot(x, z) + H.dot(y, z)),
        (H.star(z, x + y), H.star(z, x) + H.star(z, y)),
        (H.element(list(reversed(xs))), x),
        (hb.Tensor2({(j, i): c for (i, j), c in H.comultiply(x).items()}),
         H.comultiply(x)),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)
        assert left.nums == right.nums and left.den == right.den
