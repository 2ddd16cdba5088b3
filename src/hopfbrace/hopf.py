"""Group-algebra Hopf braces: exact element arithmetic over a skew brace.

The coalgebra structure is the group-like one (diagonal comultiplication),
so every Sweedler leg of a basis element is that element and all identity
checks can be evaluated basis-wise and extended bilinearly.  Scalars are
exact rationals by default; an optional prime-field mode exists for
element arithmetic and identity verification only.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrimeFieldError
from .skewbrace import SkewBrace


class RationalField:
    """Exact rationals; scalars are fractions.Fraction."""

    name = "QQ"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        return value if isinstance(value, Fraction) else Fraction(value)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p); scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.characteristic = p
        self.zero = 0
        self.one = 1

    def coerce(self, value):
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise PrimeFieldError(
                    f"denominator {value.denominator} not invertible mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


RATIONALS = RationalField()


class Element:
    """Sparse linear combination of group-like basis elements."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field=RATIONALS, _clean=False):
        if not _clean:
            out = {}
            for g, c in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
                out[int(g)] = field.add(out.get(int(g), field.zero),
                                        field.coerce(c))
            coeffs = {g: c for g, c in out.items() if c != field.zero}
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *_):
        raise AttributeError("Element is immutable")

    def items(self):
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self):
        return frozenset(self.coeffs)

    def __add__(self, other: "Element") -> "Element":
        f = self.field
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            s = f.add(out.get(g, f.zero), c)
            if s == f.zero:
                out.pop(g, None)
            else:
                out[g] = s
        return Element(out, f, _clean=True)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c) -> "Element":
        f = self.field
        c = f.coerce(c)
        if c == f.zero:
            return Element({}, f, _clean=True)
        return Element({g: f.mul(c, v) for g, v in self.coeffs.items()},
                       f, _clean=True)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(self.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for g, c in self.items():
            bits.append(f"{c}*g{g}" if c != self.field.one else f"g{g}")
        return " + ".join(bits)


class Tensor2:
    """Element of H (x) H: ordered basis pairs -> nonzero scalars."""

    __slots__ = ("entries", "field")

    def __init__(self, entries, field=RATIONALS, _clean=False):
        if not _clean:
            out = {}
            for key, c in (entries.items() if hasattr(entries, "items") else entries):
                key = (int(key[0]), int(key[1]))
                s = field.add(out.get(key, field.zero), field.coerce(c))
                out[key] = s
            entries = {k: v for k, v in out.items() if v != field.zero}
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *_):
        raise AttributeError("Tensor2 is immutable")

    def items(self):
        return sorted(self.entries.items())

    def flip(self) -> "Tensor2":
        return Tensor2({(j, i): c for (i, j), c in self.entries.items()},
                       self.field, _clean=True)

    def __eq__(self, other):
        return (isinstance(other, Tensor2) and self.field == other.field
                and self.entries == other.entries)

    def __repr__(self):
        return f"Tensor2({dict(self.items())})"


class HopfBrace:
    """The linearization k[G] of a skew brace, carrying both products,
    the diagonal comultiplication, the counit and both antipodes."""

    __slots__ = ("base", "field", "dim")

    def __init__(self, base: SkewBrace, field=RATIONALS):
        if isinstance(field, PrimeField) and base.order % field.p == 0:
            raise PrimeFieldError(
                f"characteristic {field.p} divides the carrier order "
                f"{base.order}; this degenerate case is refused")
        self.base = base
        self.field = field
        self.dim = base.order

    # ------------------------------------------------------ constructors

    def basis(self, g: int) -> Element:
        if not 0 <= g < self.dim:
            raise IndexError(f"basis index {g} out of range")
        return Element({g: self.field.one}, self.field, _clean=True)

    def one(self) -> Element:
        return self.basis(self.base.identity)

    def zero(self) -> Element:
        return Element({}, self.field, _clean=True)

    def element(self, coeffs) -> Element:
        el = Element(coeffs, self.field)
        if any(not 0 <= g < self.dim for g in el.coeffs):
            raise IndexError("coefficient index out of range")
        return el

    def _own(self, *elements):
        for x in elements:
            if x.field != self.field:
                raise ValueError(
                    f"element over {x.field!r} does not match {self.field!r}")
            if x.coeffs and max(x.coeffs) >= self.dim:
                raise ValueError("element index outside this basis")

    # -------------------------------------------------------- bilinear ops

    def _bilinear(self, table, x: Element, y: Element) -> Element:
        self._own(x, y)
        f = self.field
        out = {}
        for g, cg in x.coeffs.items():
            row = table[g]
            for h, ch in y.coeffs.items():
                k = int(row[h])
                p = f.mul(cg, ch)
                if k not in out:
                    out[k] = p          # nonzero: a field has no zero divisors
                    continue
                s = f.add(out[k], p)
                if s == f.zero:
                    del out[k]
                else:
                    out[k] = s
        return Element(out, f, _clean=True)

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
        self._own(x)
        return Element({int(mapping[g]): c for g, c in x.coeffs.items()},
                       self.field, _clean=True)

    def antipode_dot(self, x: Element) -> Element:
        """S: basis element to its dot-inverse, extended linearly."""
        return self._relabel(self.base.dot.inverses, x)

    def antipode_circ(self, x: Element) -> Element:
        """T: basis element to its circ-inverse, extended linearly."""
        return self._relabel(self.base.circ.inverses, x)

    def counit(self, x: Element):
        self._own(x)
        f = self.field
        total = f.zero
        for c in x.coeffs.values():
            total = f.add(total, c)
        return total

    def comultiply(self, x: Element) -> Tensor2:
        self._own(x)
        return Tensor2({(g, g): c for g, c in x.coeffs.items()},
                       self.field, _clean=True)

    def __eq__(self, other):
        return (isinstance(other, HopfBrace) and self.base == other.base
                and self.field == other.field)

    def __repr__(self):
        return f"HopfBrace(dim={self.dim}, field={self.field!r})"


def random_element(H: HopfBrace, rng, terms: int = 2) -> Element:
    """Random sparse element with the given number of nonzero terms."""
    support = rng.sample(range(H.dim), min(terms, H.dim))
    coeffs = {}
    for g in support:
        if H.field.characteristic == 0:
            num = rng.choice([k for k in range(-9, 10) if k])
            coeffs[g] = Fraction(num, rng.randint(1, 4))
        else:
            coeffs[g] = rng.randint(1, H.field.characteristic - 1)
    return H.element(coeffs)
