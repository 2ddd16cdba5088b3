"""Exact rational sparse vectors and subspaces in reduced echelon form.

Scalars are ``fractions.Fraction`` throughout: canonical form (gcd 1,
positive denominator, 0/1 zero) comes for free.  Vectors store no zero
entries and subspaces are kept in reduced row-echelon form, so equality
of values is equality of spaces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


def _coerce(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class SparseVector:
    """Immutable sparse vector: basis index -> nonzero Fraction."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, object] | Iterable[tuple[int, object]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        clean = {}
        for idx, val in items:
            val = _coerce(val)
            if val:
                clean[int(idx)] = val
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *_):
        raise AttributeError("SparseVector is immutable")

    def items(self):
        return sorted(self.entries.items())

    def get(self, idx: int) -> Fraction:
        return self.entries.get(idx, Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def leading_index(self) -> int:
        return min(self.entries)

    def add(self, other: "SparseVector") -> "SparseVector":
        out = dict(self.entries)
        for idx, val in other.entries.items():
            out[idx] = out.get(idx, Fraction(0)) + val
        return SparseVector(out)

    def scale(self, c) -> "SparseVector":
        c = _coerce(c)
        return SparseVector({i: c * v for i, v in self.entries.items()})

    def sub(self, other: "SparseVector") -> "SparseVector":
        return self.add(other.scale(-1))

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self):
        return f"SparseVector({dict(self.items())})"


def _check_indices(rows, ambient):
    for row in rows:
        for idx in row.entries:
            if not 0 <= idx < ambient:
                raise IndexError(f"index {idx} outside ambient dimension {ambient}")


def _reduce_rows(rows):
    """Gauss-Jordan on a list of SparseVector; returns canonical RREF rows."""
    basis: list[SparseVector] = []  # kept sorted by leading index
    for row in rows:
        for b in basis:
            c = row.get(b.leading_index())
            if c:
                row = row.sub(b.scale(c))
        if row.is_zero():
            continue
        lead = row.leading_index()
        row = row.scale(1 / row.entries[lead])
        basis = [b.sub(row.scale(b.entries[lead])) if lead in b.entries else b
                 for b in basis]
        basis.append(row)
        basis.sort(key=SparseVector.leading_index)
    return tuple(basis)


class Subspace:
    """Rational subspace of k^ambient with a canonical RREF basis."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: tuple[SparseVector, ...] = ()):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def row_space(cls, rows: Iterable[SparseVector], ambient: int) -> "Subspace":
        rows = [r for r in rows if not r.is_zero()]
        _check_indices(rows, ambient)
        return cls(ambient, _reduce_rows(rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: SparseVector) -> bool:
        if any(not 0 <= i < self.ambient for i in v.entries):
            raise IndexError("vector does not fit the ambient dimension")
        for b in self.rows:
            c = v.get(b.leading_index())
            if c:
                v = v.sub(b.scale(c))
        return v.is_zero()

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
    """{x : <row, x> = 0 for every constraint row}."""
    reduced = Subspace.row_space(constraint_rows, ambient)
    pivots = [r.leading_index() for r in reduced.rows]
    pivot_set = set(pivots)
    basis = []
    for free in range(ambient):
        if free in pivot_set:
            continue
        vec = {free: Fraction(1)}
        for row in reduced.rows:
            c = row.get(free)
            if c:
                vec[row.leading_index()] = -c
        basis.append(SparseVector(vec))
    return Subspace.row_space(basis, ambient)


def span_of_indices(indices: Iterable[int], ambient: int) -> Subspace:
    """Coordinate subspace spanned by the given basis indices."""
    return Subspace.row_space(
        [SparseVector({i: 1}) for i in indices], ambient)
