"""Group-algebra Hopf braces: exact element arithmetic over a skew brace.

The coalgebra structure is the group-like one (diagonal comultiplication),
so every Sweedler leg of a basis element is that element and all identity
checks can be evaluated basis-wise and extended bilinearly.  Scalars lie
in the rationals (characteristic 0, the default) or, for element
arithmetic and identity verification only, in GF(p).  An element keeps
int numerators over one positive int denominator (the layout of FLINT's
``fmpq_poly``), normalized once per result, so the bilinear products are
integer multiply-adds and equality compares dicts and ints.  Scalars must
be ints or other exact rationals; floats, decimals and strings are refused.
Characteristic-0 elements are also the vectors of ``linalg``: the socle,
annihilator and coincidence spaces are subspaces of H itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from numbers import Rational

from .errors import PrimeFieldError
from .skewbrace import SkewBrace, _index, _integer


def _field_name(p: int) -> str:
    return f"GF({p})" if p else "QQ"


def _scalar(c, p: int) -> tuple[int, int]:
    """An exact scalar as (numerator, positive denominator) in
    characteristic ``p``; in GF(p) the denominator is inverted, so it is 1."""
    if type(c) is int:
        num, den = c, 1
    elif isinstance(c, Rational):
        num, den = int(c.numerator), int(c.denominator)
    else:
        raise TypeError(f"scalars must be exact rationals, "
                        f"got {type(c).__name__} {c!r}")
    if not p or den == 1:
        return num, den
    if den % p == 0:
        raise PrimeFieldError(f"denominator {den} not invertible mod {p}")
    return num * pow(den, -1, p), 1


def _normal(nums: dict, den: int, p: int) -> tuple[dict, int]:
    """Canonical form: no zero numerator; gcd(den, *nums) == 1 over QQ,
    numerators in [0, p) over den == 1 in GF(p)."""
    if p:
        return {k: r for k, n in nums.items() if (r := n % p)}, 1
    nums = {k: n for k, n in nums.items() if n}
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {k: n // g for k, n in nums.items()}, den // g


class _Combination:
    """Immutable linear combination: integer numerators over one positive
    denominator, in characteristic ``p``, always in canonical form."""

    __slots__ = ("nums", "den", "p")

    def __init__(self, terms=(), characteristic: int = 0):
        items = terms.items() if hasattr(terms, "items") else terms
        pairs = [(self._key(k), _scalar(c, characteristic)) for k, c in items]
        den = lcm(*(d for _, (_, d) in pairs))
        nums = {}
        for k, (n, d) in pairs:
            nums[k] = nums.get(k, 0) + n * (den // d)
        self._fill(*_normal(nums, den, characteristic), characteristic)

    def _fill(self, nums, den, p):
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "p", p)

    @classmethod
    def _make(cls, nums: dict, den: int, p: int):
        """From raw int numerators over ``den > 0``: normalize once."""
        return cls._canonical(*_normal(nums, den, p), p)

    @classmethod
    def _canonical(cls, nums: dict, den: int, p: int):
        """From numerators already in ``_normal``'s canonical form."""
        out = object.__new__(cls)
        out._fill(nums, den, p)
        return out

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> dict:
        """Key -> nonzero exact scalar (``Fraction``, or int in GF(p))."""
        if self.p:
            return dict(self.nums)
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        return (type(other) is type(self) and self.p == other.p
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.p, self.den, frozenset(self.nums.items())))


class Element(_Combination):
    """Sparse linear combination of group-like basis elements."""

    __slots__ = ()
    _key = staticmethod(_integer)

    def __add__(self, other: "Element") -> "Element":
        if other.p != self.p:
            raise ValueError("elements of different characteristics")
        a, b = self.den, other.den
        out = {k: n * b for k, n in self.nums.items()}
        for k, n in other.nums.items():
            out[k] = out.get(k, 0) + n * a
        return Element._make(out, a * b, self.p)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(-1)

    def scale(self, c) -> "Element":
        num, den = _scalar(c, self.p)
        return Element._make({k: num * n for k, n in self.nums.items()},
                             den * self.den, self.p)

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
        return _integer(i), _integer(j)

    def __repr__(self):
        return f"Tensor2({dict(self.items())})"


class HopfBrace:
    """The linearization k[G] of a skew brace, carrying both products,
    the diagonal comultiplication, the counit and both antipodes, over
    the rationals (``characteristic=0``) or over GF(p)."""

    __slots__ = ("base", "characteristic", "dim")

    def __init__(self, base: SkewBrace, characteristic: int = 0):
        p = characteristic
        if isinstance(p, bool) or not isinstance(p, int):
            raise TypeError(f"characteristic must be an int, got "
                            f"{type(p).__name__} {p!r}")
        if p and (p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1))):
            raise ValueError(f"{p} is not prime")
        if p and base.order % p == 0:
            raise PrimeFieldError(
                f"characteristic {p} divides the carrier order "
                f"{base.order}; this degenerate case is refused")
        self.base = base
        self.characteristic = p
        self.dim = base.order

    # ------------------------------------------------------ constructors

    def basis(self, g: int) -> Element:
        return Element._make({_index(g, self.dim): 1}, 1, self.characteristic)

    def one(self) -> Element:
        return self.basis(self.base.identity)

    def element(self, coeffs) -> Element:
        el = Element(coeffs, self.characteristic)
        if any(not 0 <= g < self.dim for g in el.nums):
            raise IndexError("coefficient index out of range")
        return el

    def _own(self, *elements):
        for x in elements:
            if x.p != self.characteristic:
                raise ValueError(
                    f"element over {_field_name(x.p)} does not match "
                    f"{_field_name(self.characteristic)}")
            if x.nums and max(x.nums) >= self.dim:
                raise ValueError("element index outside this basis")

    # -------------------------------------------------------- bilinear ops

    def _bilinear(self, table, x: Element, y: Element) -> Element:
        self._own(x, y)
        out = {}
        for g, a in x.nums.items():
            row = table[g]
            for h, b in y.nums.items():
                k = int(row[h])
                out[k] = out.get(k, 0) + a * b
        return Element._make(out, x.den * y.den, self.characteristic)

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
        self._own(x)
        out = {}
        for g, n in x.nums.items():
            h = int(mapping[g])
            out[h] = out.get(h, 0) + n
        return Element._make(out, x.den, x.p)

    def antipode_dot(self, x: Element) -> Element:
        """S: basis element to its dot-inverse, extended linearly."""
        return self._relabel(self.base.dot.inverses, x)

    def antipode_circ(self, x: Element) -> Element:
        """T: basis element to its circ-inverse, extended linearly."""
        return self._relabel(self.base.circ.inverses, x)

    def counit(self, x: Element):
        self._own(x)
        if x.p:
            return sum(x.nums.values()) % x.p
        return Fraction(sum(x.nums.values()), x.den)

    def comultiply(self, x: Element) -> Tensor2:
        self._own(x)
        return Tensor2._make({(g, g): n for g, n in x.nums.items()},
                             x.den, x.p)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, HopfBrace) and self.base == other.base
            and self.characteristic == other.characteristic)

    def __repr__(self):
        return (f"HopfBrace(dim={self.dim}, "
                f"field={_field_name(self.characteristic)})")


_NONZERO_NUMERATORS = tuple(k for k in range(-9, 10) if k)


def random_element(H: HopfBrace, rng, terms: int = 2) -> Element:
    """Random sparse element with the given number of nonzero terms.  Over
    QQ each coefficient is a nonzero numerator in [-9, 9] over a
    denominator in [1, 4], brought to the lcm of the drawn denominators."""
    support = rng.sample(range(H.dim), min(terms, H.dim))
    p = H.characteristic
    if p:
        return Element._make({g: rng.randint(1, p - 1) for g in support},
                             1, p)
    drawn = [(g, rng.choice(_NONZERO_NUMERATORS), rng.randint(1, 4))
             for g in support]
    den = lcm(*(d for _, _, d in drawn))
    return Element._make({g: num * (den // d) for g, num, d in drawn}, den, 0)
