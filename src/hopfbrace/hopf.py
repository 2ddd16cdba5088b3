"""Group-algebra Hopf braces: exact element arithmetic over a skew brace.

The coalgebra structure is the group-like one (diagonal comultiplication),
so every Sweedler leg of a basis element is that element and all identity
checks can be evaluated basis-wise and extended bilinearly.  Scalars are
exact rationals: ints or other ``numbers.Rational``s; bools (Python's
ints too), floats, decimals and strings are a ``TypeError``.  An element
keeps int numerators over one positive int denominator (the layout of
FLINT's ``fmpq_poly``), normalized once per result, so the bilinear
products are integer multiply-adds and equality compares dicts and ints.
Elements are also the vectors of ``linalg``: the socle, annihilator and
coincidence spaces are subspaces of H itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from .skewbrace import SkewBrace, _index, _integer


def _scalar(c) -> tuple[int, int]:
    """An exact scalar as (numerator, positive denominator)."""
    if type(c) is int:
        return c, 1
    if isinstance(c, Rational) and not isinstance(c, bool):
        return int(c.numerator), int(c.denominator)
    raise TypeError(f"scalars must be exact rationals, "
                    f"got {type(c).__name__} {c!r}")


def _basis_index(i) -> int:
    """An element's basis index: an integer by ``skewbrace._integral``'s
    rule, not negative, so that no gather wraps it; ``_inside`` bounds it."""
    i = _integer(i)
    if i < 0:
        raise IndexError(f"basis index {i} is negative")
    return i


def _inside(n: int, *elements) -> None:
    """The one membership check: each element lies in dimension n."""
    for x in elements:
        if x.nums and max(x.nums) >= n:
            raise IndexError(f"{x} has an index outside dimension {n}")


def _normal(nums: dict, den: int) -> tuple[dict, int]:
    """Canonical form: no zero numerator and gcd(den, *nums) == 1."""
    nums = {k: n for k, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: n // g for k, n in nums.items()}, den // g


class _Combination:
    """Immutable linear combination: integer numerators over one positive
    denominator, always in canonical form."""

    __slots__ = ("nums", "den")

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        pairs = [(self._key(k), _scalar(c)) for k, c in items]
        den = lcm(*(d for _, (_, d) in pairs))
        nums = {}
        for k, (n, d) in pairs:
            nums[k] = nums.get(k, 0) + n * (den // d)
        self._fill(*_normal(nums, den))

    def _fill(self, nums, den):
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, nums: dict, den: int):
        """From raw int numerators over ``den > 0``: normalize once."""
        return cls._canonical(*_normal(nums, den))

    @classmethod
    def _canonical(cls, nums: dict, den: int):
        """From numerators already in ``_normal``'s canonical form."""
        out = object.__new__(cls)
        out._fill(nums, den)
        return out

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """Copies and pickles rebuild through ``_canonical``, as the
        default would set the slots that ``__setattr__`` refuses."""
        return type(self)._canonical, (self.nums, self.den)

    @property
    def coeffs(self) -> dict:
        """Key -> nonzero ``Fraction``."""
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        return (type(other) is type(self) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))


class Element(_Combination):
    """Sparse linear combination of group-like basis elements."""

    __slots__ = ()
    _key = staticmethod(_basis_index)

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        a, b = self.den, other.den
        out = {k: n * b for k, n in self.nums.items()}
        for k, n in other.nums.items():
            out[k] = out.get(k, 0) + n * a
        return Element._make(out, a * b)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "Element":
        num, den = _scalar(c)
        return Element._make({k: num * n for k, n in self.nums.items()},
                             den * self.den)

    def __repr__(self):
        if not self.nums:
            return "0"
        return " + ".join(f"{c}*g{g}" if c != 1 else f"g{g}"
                          for g, c in self.items())


class Tensor2(_Combination):
    """Element of H (x) H: ordered basis pairs -> nonzero scalars."""

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple[int, int]:
        i, j = key
        return _basis_index(i), _basis_index(j)

    def __repr__(self):
        return f"Tensor2({dict(self.items())})"


class HopfBrace:
    """The linearization k[G] of a skew brace over the rationals, carrying
    both products, the diagonal comultiplication, the counit and both
    antipodes."""

    __slots__ = ("base", "dim")

    def __init__(self, base: SkewBrace):
        if not isinstance(base, SkewBrace):
            raise TypeError(f"expected a SkewBrace, got {type(base).__name__}")
        self.base = base
        self.dim = base.order

    # ------------------------------------------------------ constructors

    def basis(self, g: int) -> Element:
        return Element._make({_index(g, self.dim): 1}, 1)

    def one(self) -> Element:
        return self.basis(self.base.identity)

    def element(self, coeffs) -> Element:
        _inside(self.dim, el := Element(coeffs))
        return el

    # -------------------------------------------------------- bilinear ops

    def _bilinear(self, table, x: Element, y: Element) -> Element:
        _inside(self.dim, x, y)
        out = {}
        for g, a in x.nums.items():
            row = table[g]
            for h, b in y.nums.items():
                k = int(row[h])
                out[k] = out.get(k, 0) + a * b
        return Element._make(out, x.den * y.den)

    def dot(self, x: Element, y: Element) -> Element:
        return self._bilinear(self.base.dot.table, x, y)

    def circ(self, x: Element, y: Element) -> Element:
        return self._bilinear(self.base.circ.table, x, y)

    def act(self, a: Element, b: Element) -> Element:
        """Bilinear extension of the lambda action of the circ-structure
        on the dot-structure."""
        return self._bilinear(self.base.lambda_table, a, b)

    def star(self, a: Element, b: Element) -> Element:
        """The product measuring the gap between dot and circ."""
        return self._bilinear(self.base.star_table, a, b)

    # ---------------------------------------------------------- linear ops

    def _relabel(self, mapping, x: Element) -> Element:
        """The linear extension of the basis map g -> mapping[g]."""
        _inside(self.dim, x)
        out = {}
        for g, n in x.nums.items():
            h = int(mapping[g])
            out[h] = out.get(h, 0) + n
        return Element._make(out, x.den)

    def antipode_dot(self, x: Element) -> Element:
        """S: basis element to its dot-inverse, extended linearly."""
        return self._relabel(self.base.dot.inverses, x)

    def antipode_circ(self, x: Element) -> Element:
        """T: basis element to its circ-inverse, extended linearly."""
        return self._relabel(self.base.circ.inverses, x)

    def counit(self, x: Element) -> Fraction:
        _inside(self.dim, x)
        return Fraction(sum(x.nums.values()), x.den)

    def comultiply(self, x: Element) -> Tensor2:
        _inside(self.dim, x)
        return Tensor2._make({(g, g): n for g, n in x.nums.items()}, x.den)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, HopfBrace) and self.base == other.base)

    def __repr__(self):
        return f"HopfBrace(dim={self.dim})"


_NONZERO_NUMERATORS = tuple(k for k in range(-9, 10) if k)
_TERMS = 2


def random_element(H: HopfBrace, rng) -> Element:
    """Random sparse element with min(_TERMS, H.dim) nonzero terms: each
    coefficient is a nonzero numerator in [-9, 9] over a denominator in
    [1, 4], brought to the lcm of the drawn denominators."""
    support = rng.sample(range(H.dim), min(_TERMS, H.dim))
    drawn = [(g, rng.choice(_NONZERO_NUMERATORS), rng.randint(1, 4))
             for g in support]
    den = lcm(*(d for _, _, d in drawn))
    return Element._make({g: num * (den // d) for g, num, d in drawn}, den)
