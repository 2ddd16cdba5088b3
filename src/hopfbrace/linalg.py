"""Exact rational subspaces of a Hopf brace, in reduced echelon form.

Vectors are ``hopf.Element``s: the socle, annihilator, star-trivial and
coincidence spaces are subspaces of H = k[G] itself.
Subspaces keep their canonical RREF basis, so equality of values is
equality of spaces.  Elimination is fraction-free Gauss-Jordan over the
elements' int numerators (a row's denominator does not change its span),
always pivoting on a row's greatest index; a row space is the null space
of its null space, so one elimination makes every canonical basis."""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable

from .hopf import Element
from .skewbrace import _integers


def indicator(indices: Iterable[int]) -> Element:
    """The 0/1 element with a one at each of ``indices``, which pass the
    rule of ``Element``'s keys."""
    return Element._canonical(dict.fromkeys(map(Element._key, indices), 1), 1)


def _check(vec: Element, ambient: int) -> Element:
    """Refuse a vector with an index outside the space."""
    if vec.nums and max(vec.nums) >= ambient:
        raise IndexError(f"{vec} outside ambient dimension {ambient}")
    return vec


def _primitive(row: dict[int, int], pivot: int) -> None:
    """Divide ``row`` by its gcd, signed to make the pivot entry positive."""
    g = gcd(*row.values()) if row[pivot] > 0 else -gcd(*row.values())
    if g != 1:
        for i in row:
            row[i] //= g


def _cancel(row: dict[int, int], p: int, src: dict[int, int]) -> None:
    """row <- src[p] * row - row[p] * src, which is zero at p."""
    k, c = src[p], row[p]
    if k != 1:
        for i in row:
            row[i] *= k
    for i, x in src.items():
        if y := row.get(i, 0) - c * x:
            row[i] = y
        else:
            del row[i]


def _eliminate(rows: Iterable[Element], ambient: int) -> dict[int, dict[int, int]]:
    """Fraction-free Gauss-Jordan: pivot -> primitive int row (gcd 1,
    positive at its pivot), zero at every other pivot.  Each new row
    pivots on its greatest index."""
    basis: dict[int, dict[int, int]] = {}
    for vec in rows:
        row = dict(_check(vec, ambient).nums)
        # basis rows are zero at each other's pivots: no pivot is refilled
        for p in [i for i in row if i in basis]:
            _cancel(row, p, basis[p])
        if row:
            q = max(row)
            _primitive(row, q)
            for p, b in basis.items():
                if q in b:
                    _cancel(b, q, row)
                    _primitive(b, p)
            basis[q] = row
    return basis


class Subspace:
    """Rational subspace of k^ambient with a canonical RREF basis."""

    __slots__ = ("ambient", "rows", "_by_pivot")

    def __init__(self, ambient: int, rows: tuple[Element, ...] = ()):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_by_pivot",
                           {min(r.nums): r for r in self.rows})

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def row_space(cls, rows: Iterable[Element], ambient: int) -> "Subspace":
        return common_nullspace(common_nullspace(rows, ambient).rows, ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Element) -> bool:
        """v is in the space iff v = sum over pivots p of v[p] * row_p;
        both sides are compared as int numerators over v.den * den."""
        _check(v, self.ambient)
        used = [(c, row) for p, c in v.nums.items()
                if (row := self._by_pivot.get(p)) is not None]
        den = lcm(*(row.den for _, row in used))
        total: dict[int, int] = {}
        for c, row in used:
            c *= den // row.den
            for i, x in row.nums.items():
                total[i] = total.get(i, 0) + c * x
        return ({i: x for i, x in total.items() if x}
                == {i: x * den for i, x in v.nums.items()})

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient} != {other.ambient}")
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def common_nullspace(constraint_rows: Iterable[Element], ambient: int) -> Subspace:
    """{x : <row, x> = 0 for every constraint row}.  With greatest-index
    pivots every other entry of a reduced row r_p lies on a free column
    f < p, so the kernel vectors e_f - sum_p (r_p[f] / r_p[p]) e_p, in order
    of f, are already the canonical RREF basis."""
    basis = _eliminate(constraint_rows, ambient)
    kernel = {f: {} for f in range(ambient) if f not in basis}
    for p, row in basis.items():
        for f, x in row.items():
            if f != p:
                kernel[f][p] = x
    rows = []
    for f, terms in kernel.items():
        den = lcm(*(basis[p][p] for p in terms))
        nums = {p: -x * (den // basis[p][p]) for p, x in terms.items()}
        nums[f] = den
        rows.append(Element._make(nums, den))
    return Subspace(ambient, tuple(rows))


def span_of_indices(indices: Iterable[int], ambient: int) -> Subspace:
    """Coordinate subspace spanned by the given basis indices: its unit
    vectors, sorted and distinct, are already the canonical RREF basis."""
    return Subspace(ambient, tuple(_check(indicator([g]), ambient)
                                   for g in sorted(set(_integers(indices)))))
