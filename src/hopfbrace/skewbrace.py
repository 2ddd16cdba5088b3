"""Finite groups and skew braces as validated Cayley tables.

Carrier elements are plain indices 0..n-1.  Tables are read-only numpy
integer arrays.  Validation is eager and exact: no constructor hands out
an unvalidated value.  The two cubic laws are checked on the n^2 * |S|
triples with one entry in a greedy generating set S, and still exactly:

- associativity by Light's test: the g with (x.g).y == x.(g.y) for all
  x, y are closed under products, so it suffices that every g in S passes;
- compatibility says lambda_a = a^-1 . (a o -) is a dot-endomorphism,
  and an endomorphism is fixed by its values on generators.

Only a rejected pair pays for the full sweep that finds the witness, the
lexicographically first failing triple.

The subgroup kernel works on boolean carrier masks with numpy gathers;
carriers are sorted tuples only at the API edge.  A closure is a BFS
under right multiplication by the generators alone (in a finite group
g^-1 is a positive power of g), a normal closure one closure of all
conjugates of the generators, read off the cached table
conj_table[a, x] = a x a^-1.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import (CompatibilityError, IdentityMismatchError, MorphismError,
                     NotAGroupError, ValidationError)

ORDER_CAP = 200


def _as_table(table) -> np.ndarray:
    arr = np.array(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"table must be square, got shape {arr.shape}")
    if arr.shape[0] > ORDER_CAP:
        raise ValidationError(f"order {arr.shape[0]} exceeds cap {ORDER_CAP}")
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"table entries must be integers, got {arr.dtype}")
    return arr.astype(np.int64)


def _generating_set(table) -> list[int]:
    """A greedy S whose left-nested products ((s1 s2) s3)... reach all."""
    rows = table.tolist()
    gens, reached = [], set()
    for s in range(len(rows)):
        if s in reached:
            continue
        gens.append(s)
        reached.add(s)
        frontier = set(reached)
        while frontier:
            frontier = {rows[x][g] for x in frontier for g in gens} - reached
            reached |= frontier
    return gens


def _indices(elems) -> np.ndarray:
    """Carrier indices from an iterable or an index array of any shape."""
    if isinstance(elems, np.ndarray):
        return elems.ravel()
    return np.fromiter(elems, dtype=np.int64)


def _carrier(mask) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


def _first_bad_triple(n, mismatch) -> tuple[int, int, int]:
    """The lexicographically first (a, b, c) with mismatch(a)[b, c]."""
    for a in range(n):
        bad = mismatch(a)
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return a, int(b), int(c)


class FiniteGroup:
    """A finite group as an order x order Cayley table on indices."""

    __slots__ = ("table", "order", "identity", "inverses", "_conj")

    def __init__(self, table):
        table = _as_table(table)
        n = table.shape[0]
        if table.min() < 0 or table.max() >= n:
            raise NotAGroupError("table entries out of range")
        rng = np.arange(n)
        bad_row = (np.sort(table, axis=1) != rng).any(axis=1)
        bad_col = (np.sort(table, axis=0) != rng[:, None]).any(axis=0)
        if (bad_row | bad_col).any():
            a = int(np.argmax(bad_row | bad_col))
            kind = "row" if bad_row[a] else "column"
            raise NotAGroupError(f"{kind} {a} is not a permutation (not a Latin square)",
                                 witness=(a,))
        gens = _generating_set(table)            # Light's test
        if (table[table[:, gens], :] != table[:, table[gens, :]]).any():
            triple = _first_bad_triple(
                n, lambda a: table[table[a], :] != table[a, table])
            raise NotAGroupError(f"associativity fails at triple {triple}",
                                 witness=triple)
        ident = np.flatnonzero((table == rng).all(axis=1)
                               & (table == rng[:, None]).all(axis=0))
        if not len(ident):
            raise NotAGroupError("no two-sided identity")
        e = int(ident[0])
        inverses = np.argmax(table == e, axis=1)
        no_inverse = table[inverses, rng] != e
        if no_inverse.any():
            a = int(np.argmax(no_inverse))
            raise NotAGroupError(f"element {a} has no two-sided inverse",
                                 witness=(a,))
        table.setflags(write=False)
        inverses.setflags(write=False)
        self.table = table
        self.order = n
        self.identity = e
        self.inverses = inverses
        self._conj = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    @property
    def conj_table(self) -> np.ndarray:
        """conj_table[a, x] = a x a^-1, built on first use."""
        if self._conj is None:
            conj = self.table[self.table, self.inverses[:, None]]
            conj.setflags(write=False)
            self._conj = conj
        return self._conj

    def mask(self, elems) -> np.ndarray:
        """The boolean carrier mask of an iterable or index array."""
        mask = np.zeros(self.order, dtype=bool)
        mask[_indices(elems)] = True
        return mask

    def _close(self, mask, gens) -> np.ndarray:
        """Grow mask in place to its closure under right multiplication
        by gens, a BFS that only multiplies the newest elements."""
        frontier = np.flatnonzero(mask)
        while frontier.size:
            new = self.mask(self.table[frontier[:, None], gens]) & ~mask
            mask |= new
            frontier = np.flatnonzero(new)
        return mask

    # ---------------------------------------------------------- subgroups

    def subgroup_generated(self, gens) -> tuple[int, ...]:
        gens = np.flatnonzero(self.mask(gens))
        return _carrier(self._close(self.mask([self.identity]), gens))

    def normal_closure(self, gens) -> tuple[int, ...]:
        """A conjugation-closed set generates a normal subgroup."""
        return self.subgroup_generated(self.conj_table[:, _indices(gens)])

    def center(self) -> tuple[int, ...]:
        t = self.table
        central = np.nonzero((t == t.T).all(axis=1))[0]
        return tuple(int(g) for g in central)

    def is_subgroup(self, carrier) -> bool:
        """Nonempty and closed under products, which suffices when finite."""
        c = _indices(carrier)
        return c.size > 0 and bool(
            self.mask(c)[self.table[c[:, None], c]].all())

    def is_normal(self, carrier) -> bool:
        c = _indices(carrier)
        return self.is_subgroup(c) and bool(
            self.mask(c)[self.conj_table[:, c]].all())

    def all_subgroups(self) -> list[tuple[int, ...]]:
        """Every subgroup as a join of cyclic subgroups (the cyclic
        extension method, Holt-Eick-O'Brien, Handbook of Computational
        Group Theory, 3.4): each found subgroup is joined with every
        cyclic subgroup outside it, deduplicated by bitmask."""
        n, rng = self.order, np.arange(self.order)
        cyclic = np.zeros((n, n), dtype=bool)      # cyclic[g] masks <g>
        power = rng
        while not cyclic[rng, power].all():
            cyclic[rng, power] = True
            power = self.table[power, rng]
        _, cyclic_gens = np.unique(cyclic, axis=0, return_index=True)
        trivial = self.mask([self.identity])
        found = {np.packbits(trivial).tobytes(): (self.identity,)}
        frontier = [trivial]
        while frontier:
            nxt = []
            for sub in frontier:
                elems = np.flatnonzero(sub)
                for g in cyclic_gens[~sub[cyclic_gens]]:
                    join = self._close(sub.copy(), np.append(elems, g))
                    key = np.packbits(join).tobytes()
                    if key not in found:
                        found[key] = _carrier(join)
                        nxt.append(join)
            frontier = nxt
        return sorted(found.values(), key=lambda s: (len(s), s))

    def quotient(self, carrier) -> tuple["FiniteGroup", list[int]]:
        """Quotient by a normal subgroup; returns (group, projection)."""
        if not self.is_normal(carrier):
            raise ValidationError(f"subgroup {tuple(carrier)} is not normal")
        rep = self.table[:, _indices(carrier)].min(axis=1)   # min of g N
        reps, proj = np.unique(rep, return_inverse=True)
        return FiniteGroup(proj[self.table[np.ix_(reps, reps)]]), proj.tolist()

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self.order == other.order
                and (self.table == other.table).all())

    def __hash__(self):
        return hash((self.order, self.table.tobytes()))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# ------------------------------------------------------ group constructors

def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("order must be positive")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on tuples in lexicographic order; (p*q)[i] = p[q[i]]."""
    if n > 4:
        raise ValidationError("symmetric_group supports n <= 4")
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in elems]
             for p in elems]
    return FiniteGroup(table)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n; index r + n*s for rot^r flip^s."""
    if n < 1:
        raise ValidationError("order must be positive")

    def mul(x, y):
        r1, s1 = x % n, x // n
        r2, s2 = y % n, y // n
        r = (r1 + (r2 if s1 == 0 else -r2)) % n
        return r + n * ((s1 + s2) % 2)

    return FiniteGroup([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)])


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    if n1 * n2 > ORDER_CAP:
        raise ValidationError(f"product order {n1 * n2} exceeds cap {ORDER_CAP}")
    a1, a2 = np.divmod(np.arange(n1 * n2), n2)
    return FiniteGroup(g1.table[np.ix_(a1, a1)] * n2 + g2.table[np.ix_(a2, a2)])


# ---------------------------------------------------------------- braces

class SkewBrace:
    """Two validated group tables on one carrier, sharing an identity,
    with the compatibility law a o (b.c) = (a o b) . a^-1 . (a o c)."""

    __slots__ = ("dot", "circ", "order", "identity",
                 "lambda_table", "star_table")

    def __init__(self, dot: FiniteGroup, circ: FiniteGroup):
        if dot.order != circ.order:
            raise ValidationError("the two groups have different carriers")
        if dot.identity != circ.identity:
            raise IdentityMismatchError(
                f"identities differ: dot has {dot.identity}, circ has {circ.identity}")
        n = dot.order
        d, o = dot.table, circ.table
        dinv = dot.inverses
        u = d[o, dinv[:, None]]                          # (a o b) . a^-1
        gens = _generating_set(d)                # lambda_a on generators
        lhs = o[:, d[:, gens]]                           # a o (b.g)
        rhs = d[u[:, :, None], o[:, None, gens]]         # ... . (a o g)
        if (lhs != rhs).any():
            triple = _first_bad_triple(
                n, lambda a: o[a, d] != d[u[a][:, None], o[a]])
            raise CompatibilityError(f"compatibility fails at triple {triple}",
                                     witness=triple)
        lam = d[dinv[:, None], o]                        # a^-1 . (a o b)
        star = d[lam, dinv[None, :]]                     # lambda_a(b) . b^-1
        lam.setflags(write=False)
        star.setflags(write=False)
        self.dot = dot
        self.circ = circ
        self.order = n
        self.identity = dot.identity
        self.lambda_table = lam
        self.star_table = star

    def lambda_act(self, a: int, b: int) -> int:
        return int(self.lambda_table[a, b])

    def star_set(self, a: int, b: int) -> int:
        return int(self.star_table[a, b])

    def star_image(self) -> tuple[int, ...]:
        return tuple(int(x) for x in sorted(np.unique(self.star_table)))

    def is_trivial(self) -> bool:
        return bool((self.dot.table == self.circ.table).all())

    def __eq__(self, other):
        return (isinstance(other, SkewBrace)
                and self.dot == other.dot and self.circ == other.circ)

    def __hash__(self):
        return hash((self.dot, self.circ))

    def __repr__(self):
        return f"SkewBrace(order={self.order})"


def validate_skew_brace(dot_table, circ_table, identity: int | None = None) -> SkewBrace:
    """Validate both tables and the compatibility law; raises with the
    first violated axiom and its witnessing tuple."""
    dot = FiniteGroup(dot_table)
    circ = FiniteGroup(circ_table)
    if identity is not None and (dot.identity != identity or circ.identity != identity):
        raise IdentityMismatchError(
            f"declared identity {identity} but tables have "
            f"dot={dot.identity}, circ={circ.identity}")
    return SkewBrace(dot, circ)


def trivial_brace(g: FiniteGroup) -> SkewBrace:
    return SkewBrace(g, FiniteGroup(g.table.copy()))


def opposite_brace(g: FiniteGroup) -> SkewBrace:
    """a o b := b.a; the classical almost-trivial skew brace."""
    return SkewBrace(g, FiniteGroup(g.table.T.copy()))


def radical_c4_brace() -> SkewBrace:
    """Carrier Z/4 with a.b = a+b and a o b = a+b+2ab."""
    idx = np.arange(4)
    circ = (idx[:, None] + idx[None, :] + 2 * idx[:, None] * idx[None, :]) % 4
    return SkewBrace(cyclic_group(4), FiniteGroup(circ))


def direct_product(b1: SkewBrace, b2: SkewBrace) -> SkewBrace:
    return SkewBrace(product_group(b1.dot, b2.dot),
                     product_group(b1.circ, b2.circ))


# -------------------------------------------------------------- morphisms

class BraceMap:
    """A set map between brace carriers, validated as a homomorphism for
    both products (hence a brace morphism on group-likes)."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: SkewBrace, target: SkewBrace, images):
        images = tuple(int(i) for i in images)
        if len(images) != source.order:
            raise MorphismError(
                f"image array has length {len(images)}, carrier has {source.order}")
        if any(not 0 <= i < target.order for i in images):
            raise MorphismError("image index out of range")
        img = np.asarray(images, dtype=np.int64)
        if images[source.identity] != target.identity:
            raise MorphismError("identity is not preserved",
                                witness=(source.identity,))
        for name, ts, tt in (("dot", source.dot.table, target.dot.table),
                             ("circ", source.circ.table, target.circ.table)):
            mism = img[ts] != tt[img[:, None], img[None, :]]
            if mism.any():
                a, b = np.argwhere(mism)[0]
                raise MorphismError(
                    f"not a {name}-homomorphism at pair ({int(a)}, {int(b)})",
                    witness=(int(a), int(b)))
        self.source = source
        self.target = target
        self.images = images

    def __call__(self, g: int) -> int:
        return self.images[g]

    def kernel_set(self) -> tuple[int, ...]:
        e = self.target.identity
        return tuple(g for g in range(self.source.order) if self.images[g] == e)

    def image_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.images)))

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def __eq__(self, other):
        return (isinstance(other, BraceMap) and self.source == other.source
                and self.target == other.target and self.images == other.images)

    def __repr__(self):
        return f"BraceMap(order {self.source.order} -> {self.target.order})"
