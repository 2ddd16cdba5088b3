"""An independent reference solver: dict-of-``Fraction`` Gauss-Jordan.

This is the elimination ``hopfbrace.linalg`` used before its integer
rows.  It normalises every pivot to 1 as it goes, then finds a null space
by writing one kernel vector per free column and reducing those vectors
again.  It shares only the ``Element`` and ``Subspace`` containers with
the library, and does its own dict-of-``Fraction`` arithmetic over
``Element.coeffs``, so the tests can compare two solvers.
"""

from fractions import Fraction

from hopfbrace.hopf import Element
from hopfbrace.linalg import Subspace


def add(x: Element, y: Element) -> Element:
    out = x.coeffs
    for idx, val in y.coeffs.items():
        out[idx] = out.get(idx, Fraction(0)) + val
    return Element(out)


def scale(x: Element, c) -> Element:
    c = Fraction(c)
    return Element({i: c * v for i, v in x.coeffs.items()})


def sub(x: Element, y: Element) -> Element:
    return add(x, scale(y, -1))


def lead(x: Element) -> int:
    return min(x.coeffs)


def reduce_rows(rows) -> tuple[Element, ...]:
    """Canonical RREF rows of the span of ``rows``."""
    basis: list[Element] = []  # kept sorted by leading index
    for row in rows:
        for b in basis:
            c = row.coeffs.get(lead(b))
            if c:
                row = sub(row, scale(b, c))
        if not row.coeffs:
            continue
        i = lead(row)
        row = scale(row, 1 / row.coeffs[i])
        basis = [sub(b, scale(row, b.coeffs[i])) if i in b.coeffs
                 else b for b in basis]
        basis.append(row)
        basis.sort(key=lead)
    return tuple(basis)


def row_space(rows, ambient: int) -> Subspace:
    rows = list(rows)
    for row in rows:
        for idx in row.coeffs:
            if not 0 <= idx < ambient:
                raise IndexError(
                    f"index {idx} outside ambient dimension {ambient}")
    return Subspace._canonical(ambient, reduce_rows(rows))


def common_nullspace(rows, ambient: int) -> Subspace:
    """{x : <row, x> = 0 for every row}, in two passes: kernel vectors
    e_f - sum r[f] e_lead(r) read off the RREF of the rows, then their
    own RREF."""
    reduced = row_space(rows, ambient)
    pivots = {lead(r) for r in reduced.rows}
    basis = []
    for free in range(ambient):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for row in reduced.rows:
            c = row.coeffs.get(free)
            if c:
                vec[lead(row)] = -c
        basis.append(Element(vec))
    return row_space(basis, ambient)


def contains(space: Subspace, v: Element) -> bool:
    """Reduce v by the space's RREF rows and test for zero."""
    for b in space.rows:
        c = v.coeffs.get(lead(b))
        if c:
            v = sub(v, scale(b, c))
    return not v.coeffs
