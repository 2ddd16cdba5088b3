"""Finite groups and skew braces as validated Cayley tables.

Carrier elements are plain indices 0..n-1.  Tables are read-only numpy
integer arrays.  Validation is eager and exact, with one private
exception: ``FiniteGroup._image``, the table on the cosets of a normal
subbrace, which ``subobjects.quotient`` hands out only once its
projection is checked to be a homomorphism for both products (a
multiplicative surjection from a group makes its image a group, with the
images of the identity and inverses).  ``_adopt`` sets every group's state.

One rule: a law quantified over a group is checked on its generating
set.  Each group keeps one, S, without the identity, as the read-only
intp array ``FiniteGroup.generators``: Light's test's greedy S, or for an
``_image`` group pi(S), the image of its source group's S.  The a that
satisfy each law below are closed under the group's product, so they form
a subgroup (a closed nonempty subset of a finite group is one), which is
the group once it holds S:

- associativity by Light's test: the g with (x.g).y == x.(g.y) for all
  x, y are closed under products;
- compatibility says lambda_a = a^-1 . (a o -) is a dot-endomorphism,
  and an endomorphism is fixed by its values on generators; the law
  a o (b.c) = (a o b) . a^-1 . (a o c) is a times it, on the same triples
  (n^2 * |S| of them, still exact);
- normality of a carrier N, in ``FiniteGroup.is_normal`` and, through
  ``SkewBrace.normality_table``, ``Subbrace.is_normal``: conjugation is a
  bijection, so a N a^-1 within N means equal to N, and the a with that
  are closed under products; so on S_dot for the dot group, on S_circ
  for the circ group;
- lambda-stability, hence strongness too, on S_circ: lambda is a
  homomorphism (G, o) -> Aut(G, .), and each lambda_a is a bijection;
- the center, in ``FiniteGroup.center``: the centralizer of z is a
  subgroup;
- the socle and annihilator masks of ``series.socle_annihilator``:
  lambda_z is a dot-automorphism, so it is the identity once it fixes
  S_dot, and the a with lambda_a(z) = z, z's stabilizer under lambda,
  form a circ-subgroup;
- the generator families of ``series.relative_commutator`` and
  ``series.huq_commutator``, each commutator one dot-normal closure N of
  them: the h with I*h in N, or with [I, h] in N, are closed under the
  dot product, and those with h*I in N under the circ product, so I*S_dot,
  [I, S_dot] and S_circ*I stand for I*H, [I, H] and H*I; [I, S_circ]_o,
  with the other two Huq families, yields S_circ*I, hence [I, H]_o (the
  proofs are in those docstrings).

The whole-group sweeps stay where they are the second of two
independent computations: ``Subbrace.is_normal_via_star``, verify's
``hopf-center-commutes``, the linear systems of the socle and
annihilator spaces, and the gamma step, ``star_closure_subbrace`` and
``full_abelianization``, against which the commutators are compared.

S leaves out the identity e, which counts as reached from the start: e
passes every law above unchecked, as a two-sided identity is associative
in the middle, lambda_a(e) = a^-1 . (a o e) = e, lambda_e is the
identity, and e commutes with everything.  Light's test finds e
first, if there is one, and nothing is refused after it: an associative
Latin square is a group.  (Take r with a.r = a; each x is y.a, so
x.r = y.(a.r) = x, and r is a right identity; likewise some l is a left
one, and l = l.r = r.  If a.b = e = c.a, then c = c.(a.b) = (c.a).b = b.)
Each law is one function, which ``_refuse`` reads twice: on chunks of
generators, at most ``_BLOCK`` = 2^17 entries (n^2 per generator) at a
time, up to the first failing chunk: one chunk below order ~48, three
generators at a time at order 192.  Only a rejected input pays for the
full sweep that finds the witness, the lexicographically first failing
triple, the law read in blocks of first entries of the same size by
``_first_bad_tuple``, the one search behind every chunked check and
every pair and triple witness.  The lambda table is built eagerly, for
the check; the star, conjugation and normality tables on first use.

A carrier is a boolean mask, a sorted tuple only at the API edge:
``subgroup_generated``, ``normal_closure`` and ``center`` all return
masks.  Caller indices pass one check, ``_indices``, but the labels of
``linalg.common_nullspace``, which must also rise, pass one scan of
type, range and order at a third of the cost of ``_indices`` and a rise
test, as ``series.socle_annihilator`` gives labels twice a call.  The
package masks its own gathered index arrays (up to n^2 entries)
unchecked, with ``FiniteGroup._mask``, and reads a mask's true entries
with ``_nonzero``; it never calls numpy's ``unique``, whose first call
imports ``numpy.ma``.  A closure is a BFS under right multiplication by
the generators alone (in a finite group g^-1 is a positive power of g),
a normal closure one closure of all conjugates of the generators, read
off the cached table conj_table[a, x] = a x a^-1, as are the rows of
``is_normal`` and of the normality table.
"""

from __future__ import annotations

from itertools import chain, permutations

import numpy as np

from .errors import (CompatibilityError, IdentityMismatchError, MorphismError,
                     NotAGroupError, ValidationError)

ORDER_CAP = 200
_INT64 = range(-2**63, 2**63)


def _as_table(table) -> np.ndarray:
    """One owned int64 copy of a nonempty square table of int64 integers,
    from code or a brace file.  Rows, and arrays of no signed integer
    dtype, are typed by the rule of ``_integral``, as numpy reads a bool
    among integers as 0 or 1, and an int past int64 makes it pick object
    or uint64.  A refusal names the first bad entry in row-major order."""
    try:
        arr = np.array(table)
    except ValueError:                                  # ragged rows
        raise ValidationError("table is not a rectangular array") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise ValidationError(
            f"table must be nonempty and square, got shape {arr.shape}")
    if arr.shape[0] > ORDER_CAP:
        raise ValidationError(f"order {arr.shape[0]} exceeds cap {ORDER_CAP}")
    if arr.dtype.kind != "i" or not isinstance(table, np.ndarray) and not _integral(
            {type(x) for row in table for x in row} - {int}):
        for x in chain.from_iterable(table):
            if not _integral({type(x)}):
                raise ValidationError(
                    f"table has a non-integer entry {x!r}: entries must be "
                    f"integers, got {type(x).__name__}")
            if int(x) not in _INT64:
                raise ValidationError(f"table has an out-of-range entry {x}, "
                                      "outside the int64 range [-2**63, 2**63)")
    return arr.astype(np.int64, copy=False)


def _generating_set(table, identity: int | None = None) -> list[int]:
    """A greedy S whose left-nested products ((s1 s2) s3)... reach all,
    starting from the identity, if given, as already reached."""
    rows = table.tolist()
    gens, reached = [], set() if identity is None else {identity}
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


def _frozen(arr) -> np.ndarray:
    """An intp array of ``arr``, read-only like the tables."""
    arr = np.asarray(arr, dtype=np.intp)
    arr.setflags(write=False)
    return arr


def _set_frozen_state(obj, state) -> None:
    """``__setstate__`` of every class that holds read-only arrays: a copy
    or an unpickled object keeps its arrays read-only, like the original's."""
    for name, value in state[1].items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        setattr(obj, name, value)


def _integral(types) -> bool:
    """Whether all these types are Python or NumPy integers but bool, which
    numpy and ``operator.index`` read as 0 and 1; ``{int}`` skips the loop."""
    return types == {int} or all(
        t is not bool and issubclass(t, (int, np.integer)) for t in types)


def _integer(i) -> int:
    """One caller integer with no range, by the rule of ``_integral``: an
    index, an identity, a lemma clause, a ``Subspace``'s ambient
    dimension, or a suite's sample count or seed."""
    if not _integral({type(i)}):
        raise TypeError(f"expected an integer, got {i!r}")
    return int(i)


def _index(i, n: int) -> int:
    """One caller index, by the rule of ``_indices``."""
    i = _integer(i)
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range [0, {n})")
    return i


def _indices(elems, n: int) -> np.ndarray:
    """The one check on caller indices: a flat collection, in any
    container, of Python or NumPy integers other than bools, each in
    [0, n); anything else raises TypeError or IndexError."""
    if not isinstance(elems, np.ndarray):
        elems = list(elems)
        if not _integral(set(map(type, elems))):
            raise TypeError(f"indices must be integers, got {elems}")
        try:
            elems = np.array(elems, dtype=np.int64)
        except OverflowError:                           # beyond 64 bits
            raise IndexError(f"index out of range [0, {n}): {elems}") from None
    if elems.ndim != 1 or elems.size and elems.dtype.kind not in "iu":
        raise TypeError(f"indices must be flat integers, got {elems.tolist()}")
    arr = elems.astype(np.int64, copy=False)
    if arr.size and arr.view(np.uint64).max() >= n:     # negatives read huge
        raise IndexError(f"index out of range [0, {n}): {arr.tolist()}")
    return arr


def _nonzero(mask) -> np.ndarray:
    """A 1-D mask's true indices, at ~1/4 the cost of np.flatnonzero."""
    return mask.nonzero()[0]


_BLOCK = 1 << 17      # entries of a swept mismatch array built at once


def _first_bad_tuple(bad, n: int = 0,
                     width: int = 1) -> tuple[int, ...] | None:
    """The lexicographically first index tuple at which ``bad`` is true,
    or None: the package's one search for a witness.  ``bad`` is a boolean
    array, or, for one too large to hold, a function of ``lo, hi`` that
    builds its rows lo:hi of n, ``width`` entries each.  Those are built in
    order, in blocks of about ``_BLOCK`` entries, up to the first block
    that fails; its first hit, offset by the block start, is the witness.
    The chunked checks, which read only whether there is one, build
    their generator rows lo:hi along another axis."""
    if not callable(bad):       # argmax: the first hit, in row-major order
        return (tuple(map(int, np.unravel_index(bad.argmax(), bad.shape)))
                if bad.any() else None)
    step = max(1, _BLOCK // width)
    for lo in range(0, n, step):
        hit = _first_bad_tuple(bad(lo, min(n, lo + step)))
        if hit is not None:
            return (lo + hit[0], *hit[1:])
    return None


def _refuse(error, name: str, law, gens, n: int) -> None:
    """Decide ``law(a, g)``, the mismatch array of the triples with first
    entry in a and generator-rule entry in g, on the generators; if it
    fails, raise ``error`` with the lexicographically first failing one."""
    if _first_bad_tuple(lambda lo, hi: law(slice(None), gens[lo:hi]),
                        len(gens), n * n) is not None:
        triple = _first_bad_tuple(
            lambda lo, hi: law(slice(lo, hi), slice(None)), n, n * n)
        raise error(f"{name} fails at triple {triple}", witness=triple)


class FiniteGroup:
    """A finite group as an order x order Cayley table on indices."""

    __slots__ = ("table", "order", "identity", "inverses", "generators", "_conj")
    __setstate__ = _set_frozen_state

    def __init__(self, table):
        table = _as_table(table)
        n = table.shape[0]
        rng = np.arange(n)      # an entry outside [0, n) fails the Latin check
        bad_row = (np.sort(table, axis=1) != rng).any(axis=1)
        bad_col = (np.sort(table, axis=0) != rng[:, None]).any(axis=0)
        if (bad_row | bad_col).any():
            a = int(np.argmax(bad_row | bad_col))
            kind = "row" if bad_row[a] else "column"
            raise NotAGroupError(f"{kind} {a} is not a permutation (not a Latin square)",
                                 witness=(a,))
        ident = _nonzero((table == rng).all(axis=1)
                         & (table == rng[:, None]).all(axis=0))
        gens = _frozen(_generating_set(table, *ident.tolist()))
        # (x.y).z != x.(y.z), for y a generator (Light's test)
        _refuse(NotAGroupError, "associativity",
                lambda x, y: table[table[x][:, y]] != table[x][:, table[y]],
                gens, n)
        e = int(ident[0])                        # inverses: a . a^-1 == e
        self._adopt(table, e, np.argmax(table == e, axis=1), gens)

    def _adopt(self, table, identity: int, inverses, generators) -> None:
        """Freeze and set a group's state, for ``__init__`` and ``_image``."""
        table.setflags(write=False)
        inverses.setflags(write=False)
        self.table = table
        self.order = len(table)
        self.identity = identity
        self.inverses = inverses
        self.generators = generators
        self._conj = None

    @property
    def conj_table(self) -> np.ndarray:
        """conj_table[a, x] = a x a^-1, built on first use."""
        if self._conj is None:
            self._conj = _frozen(self.table[self.table, self.inverses[:, None]])
        return self._conj

    def mask(self, elems) -> np.ndarray:
        """The boolean carrier mask of caller indices (see ``_indices``)."""
        return self._mask(_indices(elems, self.order))

    def _mask(self, idx) -> np.ndarray:
        """The unchecked mask of the package's own index array, any shape."""
        mask = np.zeros(self.order, dtype=bool)
        mask[idx] = True
        return mask

    # ---------------------------------------------------------- subgroups

    def _closure(self, gens) -> np.ndarray:
        """The mask of the subgroup generated by a generator mask: a BFS
        from the generators and the identity under right multiplication
        by the generators alone, multiplying only the newest elements."""
        mask = gens | self._mask(self.identity)
        gens, frontier = _nonzero(gens), _nonzero(mask)
        while frontier.size:
            new = self._mask(self.table[frontier[:, None], gens]) & ~mask
            mask |= new
            frontier = _nonzero(new)
        return mask

    def _is_subgroup(self, mask, c) -> bool:
        """Whether ``mask``, whose true indices are ``c``, is nonempty and
        closed under products, which suffices when finite."""
        return c.size > 0 and bool(mask[self.table[c[:, None], c]].all())

    def subgroup_generated(self, gens) -> np.ndarray:
        """The mask of the subgroup generated by caller indices."""
        return self._closure(self.mask(gens))

    def normal_closure(self, gens) -> np.ndarray:
        """A conjugation-closed set generates a normal subgroup."""
        return self._closure(self._mask(self.conj_table[:, self.mask(gens)]))

    def center(self) -> np.ndarray:
        """The z with z s = s z for every s in S: z's centralizer is a
        subgroup, so it is the group once it holds S."""
        s = self.generators
        return (self.table[:, s] == self.table[s].T).all(axis=1)

    def is_subgroup(self, carrier) -> bool:
        mask = self.mask(carrier)
        return self._is_subgroup(mask, _nonzero(mask))

    def is_normal(self, carrier) -> bool:
        mask = self.mask(carrier)
        c = _nonzero(mask)
        return self._is_subgroup(mask, c) and bool(
            mask[self.conj_table[self.generators[:, None], c]].all())

    def _image(self, proj, reps) -> "FiniteGroup":
        """The unvalidated group on the classes of a partition, with class
        map ``proj`` and least elements ``reps``; for ``quotient`` only."""
        image = object.__new__(FiniteGroup)
        e = int(proj[self.identity])
        pi_s = np.zeros(len(reps), dtype=bool)
        pi_s[proj[self.generators]] = True              # pi(S): pi is onto
        pi_s[e] = False
        image._adopt(proj[self.table[np.ix_(reps, reps)]], e,
                     proj[self.inverses[reps]], _frozen(_nonzero(pi_s)))
        return image

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.order, self.table.tobytes()))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


# ------------------------------------------------------ group constructors

def _size(n, cap: int) -> int:
    """A constructor's size argument: an integer, not a bool, in [1, cap]."""
    try:
        n = _integer(n)
    except TypeError:
        raise ValidationError(f"size must be an integer, got {n!r}") from None
    if not 1 <= n <= cap:
        raise ValidationError(f"size must lie in [1, {cap}], got {n}")
    return n


def cyclic_group(n: int) -> FiniteGroup:
    n = _size(n, ORDER_CAP)
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on tuples in lexicographic order; (p*q)[i] = p[q[i]]."""
    n = _size(n, 4)
    perms = np.array(sorted(permutations(range(n))))
    products = perms[:, perms]                       # [p, q, i] = p[q[i]]
    # a permutation's digits in base n: their order is the lexicographic one
    place = n ** np.arange(n - 1, -1, -1)
    return FiniteGroup(np.searchsorted(perms @ place, products @ place))


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n; index r + n*s for rot^r flip^s."""
    n = _size(n, ORDER_CAP // 2)
    s, r = np.divmod(np.arange(2 * n), n)
    rot = (r[:, None] + (1 - 2 * s[:, None]) * r[None, :]) % n
    return FiniteGroup(rot + n * (s[:, None] ^ s[None, :]))


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

    __slots__ = ("dot", "circ", "order", "identity", "lambda_table", "_star",
                 "_normality")
    __setstate__ = _set_frozen_state

    def __init__(self, dot: FiniteGroup, circ: FiniteGroup):
        if not (isinstance(dot, FiniteGroup) and isinstance(circ, FiniteGroup)):
            raise TypeError(f"expected two FiniteGroups, got "
                            f"{type(dot).__name__} and {type(circ).__name__}")
        if dot.order != circ.order:
            raise ValidationError("the two groups have different carriers")
        if dot.identity != circ.identity:
            raise IdentityMismatchError(
                f"identities differ: dot has {dot.identity}, circ has {circ.identity}",
                witness=(dot.identity, circ.identity))
        n = dot.order
        d, o = dot.table, circ.table
        lam = d[dot.inverses[:, None], o]                # a^-1 . (a o b)
        # lambda_a(b.c) != lambda_a(b) . lambda_a(c), for c a dot generator
        _refuse(CompatibilityError, "compatibility",
                lambda a, c: (lam[a][:, d[:, c]]
                              != d[lam[a][:, :, None], lam[a][:, None, c]]),
                dot.generators, n)
        lam.setflags(write=False)
        self.dot = dot
        self.circ = circ
        self.order = n
        self.identity = dot.identity
        self.lambda_table = lam
        self._star = None
        self._normality = None

    @property
    def star_table(self) -> np.ndarray:
        """star_table[a, b] = lambda_a(b) . b^-1, built on first use."""
        if self._star is None:
            self._star = _frozen(
                self.dot.table[self.lambda_table, self.dot.inverses[None, :]])
        return self._star

    @property
    def normality_table(self) -> np.ndarray:
        """The maps whose stable subsets are the normal ones, on generators
        only, built on first use: lambda_s and x -> s o x o s^-1 for s in
        S_circ, and x -> s.x.s^-1 for s in S_dot, one row each."""
        if self._normality is None:
            s_circ = self.circ.generators
            self._normality = _frozen(np.concatenate((
                self.lambda_table[s_circ],
                self.circ.conj_table[s_circ],
                self.dot.conj_table[self.dot.generators])))
        return self._normality

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
    if identity is not None and {dot.identity, circ.identity} != {_integer(identity)}:
        raise IdentityMismatchError(
            f"declared identity {identity} but tables have "
            f"dot={dot.identity}, circ={circ.identity}",
            witness=(dot.identity, circ.identity))
    return SkewBrace(dot, circ)


def trivial_brace(g: FiniteGroup) -> SkewBrace:
    return SkewBrace(g, g)


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
    """The check that a set map between brace carriers is a homomorphism
    for both products, which keeps the read-only int64 ``images``: the base
    initializer of ``subobjects.HopfMorphism``, a class of its own because
    ``perfbench/tracing.py`` wraps ``BraceMap.__init__``."""

    __slots__ = ("images",)
    __setstate__ = _set_frozen_state

    def __init__(self, source: SkewBrace, target: SkewBrace, images):
        try:
            img = _indices(images, target.order).astype(np.int64)  # a copy
        except (TypeError, IndexError) as exc:
            raise MorphismError(f"image {exc}") from None
        if len(img) != source.order:
            raise MorphismError(
                f"image array has length {len(img)}, carrier has {source.order}")
        for name, ts, tt in (("dot", source.dot.table, target.dot.table),
                             ("circ", source.circ.table, target.circ.table)):
            pair = _first_bad_tuple(img[ts] != tt[img[:, None], img[None, :]])
            if pair is not None:
                raise MorphismError(
                    f"not a {name}-homomorphism at pair {pair}",
                    witness=pair)
        img.setflags(write=False)
        self.images = img
