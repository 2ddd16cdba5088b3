"""An independent reference solver: dict-of-``Fraction`` Gauss-Jordan.

This is the elimination ``hopfbrace.linalg`` used before its integer
rows.  It normalises every pivot to 1 as it goes, then finds a null space
by writing one kernel vector per free column and reducing those vectors
again.  It shares only the ``SparseVector`` and ``Subspace`` containers
with the library, so the tests can compare two solvers.
"""

from fractions import Fraction

from hopfbrace.linalg import SparseVector, Subspace


def add(x: SparseVector, y: SparseVector) -> SparseVector:
    out = dict(x.entries)
    for idx, val in y.entries.items():
        out[idx] = out.get(idx, Fraction(0)) + val
    return SparseVector(out)


def scale(x: SparseVector, c) -> SparseVector:
    c = Fraction(c)
    return SparseVector({i: c * v for i, v in x.entries.items()})


def sub(x: SparseVector, y: SparseVector) -> SparseVector:
    return add(x, scale(y, -1))


def reduce_rows(rows) -> tuple[SparseVector, ...]:
    """Canonical RREF rows of the span of ``rows``."""
    basis: list[SparseVector] = []  # kept sorted by leading index
    for row in rows:
        for b in basis:
            c = row.entries.get(b.leading_index())
            if c:
                row = sub(row, scale(b, c))
        if not row.entries:
            continue
        lead = row.leading_index()
        row = scale(row, 1 / row.entries[lead])
        basis = [sub(b, scale(row, b.entries[lead])) if lead in b.entries
                 else b for b in basis]
        basis.append(row)
        basis.sort(key=SparseVector.leading_index)
    return tuple(basis)


def row_space(rows, ambient: int) -> Subspace:
    rows = list(rows)
    for row in rows:
        for idx in row.entries:
            if not 0 <= idx < ambient:
                raise IndexError(
                    f"index {idx} outside ambient dimension {ambient}")
    return Subspace(ambient, reduce_rows(rows))


def common_nullspace(rows, ambient: int) -> Subspace:
    """{x : <row, x> = 0 for every row}, in two passes: kernel vectors
    e_f - sum r[f] e_lead(r) read off the RREF of the rows, then their
    own RREF."""
    reduced = row_space(rows, ambient)
    pivots = {r.leading_index() for r in reduced.rows}
    basis = []
    for free in range(ambient):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for row in reduced.rows:
            c = row.entries.get(free)
            if c:
                vec[row.leading_index()] = -c
        basis.append(SparseVector(vec))
    return row_space(basis, ambient)


def contains(space: Subspace, v: SparseVector) -> bool:
    """Reduce v by the space's RREF rows and test for zero."""
    for b in space.rows:
        c = v.entries.get(b.leading_index())
        if c:
            v = sub(v, scale(b, c))
    return not v.entries
