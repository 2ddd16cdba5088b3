"""Full-broadcast reference witnesses for the sliced sweeps.

``basis_sweep`` is the basis layer of ``hopfbrace.verify`` as it was
before it went slice by slice: every variable of an identity bound to an
index grid, both sides gathered over all n^arity basis tuples at once,
and the witness the first row of ``np.argwhere``.  The two validator
references sweep the defining laws over all n^3 triples the same way.
Each holds whole n^3 arrays, so it is for tests at small orders only.
"""

import numpy as np


def basis_ops(base) -> dict:
    d, o = base.dot.table, base.circ.table
    lam, st = base.lambda_table, base.star_table
    e = base.identity
    return {"__builtins__": {},
            "dot": lambda x, y: d[x, y], "circ": lambda x, y: o[x, y],
            "act": lambda x, y: lam[x, y], "star": lambda x, y: st[x, y],
            "S": base.dot.inverses.__getitem__,
            "T": base.circ.inverses.__getitem__,
            "one": lambda: e, "eps": lambda x: 1, "scale": lambda x, c: x}


def index_grids(n, arity):
    return [np.arange(n).reshape([n if i == pos else 1 for i in range(arity)])
            for pos in range(arity)]


def first_true(mism):
    """The first index tuple of a boolean array, or None."""
    hits = np.argwhere(mism)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


def basis_sweep(base, ident):
    """(basis checks, the whole mismatch array) of one registry identity."""
    n = base.order
    ns = {**basis_ops(base),
          **dict(zip(ident.variables, index_grids(n, ident.arity)))}
    full = (n,) * ident.arity
    lhs = np.broadcast_to(eval(ident.lhs.code, ns), full)
    rhs = np.broadcast_to(eval(ident.rhs.code, ns), full)
    return lhs.size, lhs != rhs


def associativity_mismatch(t):
    """[x, y, z] -> (x.y).z != x.(y.z), for a Latin square t."""
    return t[t, :] != t[:, t]


def compatibility_mismatch(dot, o):
    """[a, b, c] -> a o (b.c) != (a o b) . a^-1 . (a o c), for a group
    ``dot`` and a circ table ``o`` on its carrier."""
    d, dinv = dot.table, dot.inverses
    a, b, c = index_grids(dot.order, 3)
    return o[a, d[b, c]] != d[d[o[a, b], dinv[a]], o[a, c]]
