"""Exact rational sparse vectors and subspaces in reduced echelon form.

Vectors hold nonzero ``fractions.Fraction`` entries (floats and other
non-rationals are refused) and subspaces keep their canonical RREF basis,
so equality of values is equality of spaces.  Inside, elimination is
fraction-free Gauss-Jordan over sparse Python-int rows; ``Fraction``
objects are made only for the entries of the vectors returned."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import index
from typing import Iterable, Mapping


class SparseVector:
    """Immutable sparse vector: basis index -> nonzero Fraction."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, object] | Iterable[tuple[int, object]] = ()):
        items = getattr(entries, "items", None)
        clean = {}
        for idx, val in (entries if items is None else items()):
            if type(val) is not Fraction:
                if not (type(val) is int or isinstance(val, Rational)):
                    raise TypeError(f"vector entries must be exact rationals, "
                                    f"got {type(val).__name__} {val!r}")
                val = Fraction(int(val.numerator), int(val.denominator))
            if val:
                clean[index(idx)] = val
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *_):
        raise AttributeError("SparseVector is immutable")

    def items(self):
        return sorted(self.entries.items())

    def leading_index(self) -> int:
        return min(self.entries)

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        return f"SparseVector({dict(self.items())})"


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


def _eliminate(rows: Iterable[SparseVector], ambient: int,
               pick) -> dict[int, dict[int, int]]:
    """Fraction-free Gauss-Jordan: pivot -> primitive int row (gcd 1,
    positive at its pivot), zero at every other pivot.  ``pick`` (``min``
    or ``max``) chooses the pivot column of each new row."""
    basis: dict[int, dict[int, int]] = {}
    for vec in rows:
        if any(not 0 <= i < ambient for i in vec.entries):
            raise IndexError(f"{vec} outside ambient dimension {ambient}")
        den = lcm(*(x.denominator for x in vec.entries.values()))
        row = {i: x.numerator * (den // x.denominator)
               for i, x in vec.entries.items()}
        # basis rows are zero at each other's pivots: no pivot is refilled
        for p in [i for i in row if i in basis]:
            _cancel(row, p, basis[p])
        if row:
            q = pick(row)
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

    def __init__(self, ambient: int, rows: tuple[SparseVector, ...] = ()):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_by_pivot",
                           {r.leading_index(): r for r in self.rows})

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def row_space(cls, rows: Iterable[SparseVector], ambient: int) -> "Subspace":
        basis = _eliminate(rows, ambient, min)
        return cls(ambient, tuple(
            SparseVector({i: Fraction(x, row[p]) for i, x in row.items()})
            for p, row in sorted(basis.items())))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: SparseVector) -> bool:
        """v is in the space iff v = sum over pivots p of v[p] * row_p."""
        if any(not 0 <= i < self.ambient for i in v.entries):
            raise IndexError(f"{v} outside ambient dimension {self.ambient}")
        total: dict[int, Fraction] = {}
        for p, c in v.entries.items():
            if (row := self._by_pivot.get(p)) is not None:
                for i, x in row.entries.items():
                    total[i] = total.get(i, 0) + c * x
        return {i: x for i, x in total.items() if x} == v.entries

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


def common_nullspace(constraint_rows: Iterable[SparseVector], ambient: int) -> Subspace:
    """{x : <row, x> = 0 for every constraint row}.  With greatest-index
    pivots every other entry of a reduced row r_p lies on a free column
    f < p, so the kernel vectors e_f - sum_p (r_p[f] / r_p[p]) e_p, in order
    of f, are already the canonical RREF basis."""
    basis = _eliminate(constraint_rows, ambient, max)
    kernel = {f: {f: 1} for f in range(ambient) if f not in basis}
    for p, row in basis.items():
        for f, x in row.items():
            if f != p:
                kernel[f][p] = Fraction(-x, row[p])
    return Subspace(ambient, tuple(map(SparseVector, kernel.values())))


def span_of_indices(indices: Iterable[int], ambient: int) -> Subspace:
    """Coordinate subspace spanned by the given basis indices."""
    return Subspace.row_space(
        [SparseVector({i: 1}) for i in indices], ambient)
