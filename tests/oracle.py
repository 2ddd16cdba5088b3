"""Independent brute-force oracle, written before the engine.

Everything here works on raw Cayley tables (lists of lists of ints) and
plain set arithmetic.  Nothing imports the package under test: the point
is that series sizes, socle carriers, commutators and centrality verdicts
computed here are an independent cross-check for the engine.
"""

from functools import cache
from itertools import permutations


# ---------------------------------------------------------------- tables

def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric_table(n):
    """S_n on tuples in lexicographic order; (p*q)[i] = p[q[i]]."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in elems] for p in elems]
    return table, elems


def dihedral_table(n):
    """Order 2n; index r + n*s for rotation^r * flip^s."""
    def mul(x, y):
        r1, s1 = x % n, x // n
        r2, s2 = y % n, y // n
        r = (r1 + (r2 if s1 == 0 else -r2)) % n
        return r + n * ((s1 + s2) % 2)
    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    def mul(x, y):
        a1, a2 = divmod(x, n2)
        b1, b2 = divmod(y, n2)
        return t1[a1][b1] * n2 + t2[a2][b2]
    n = n1 * n2
    return [[mul(x, y) for y in range(n)] for x in range(n)]


def radical_c4_tables():
    dot = cyclic_table(4)
    circ = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]
    return dot, circ


def opposite_tables(dot):
    circ = [[dot[b][a] for b in range(len(dot))] for a in range(len(dot))]
    return dot, circ


def trivial_tables(dot):
    return dot, [row[:] for row in dot]


def product_brace(d1, c1, d2, c2):
    return product_table(d1, d2), product_table(c1, c2)


# ------------------------------------------------------------- basic ops

def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    raise ValueError("no identity")


def inverses_of(table):
    return _inverses(table, identity_of(table))


def _inverses(table, e):
    n = len(table)
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == e and table[b][a] == e:
                inv[a] = b
    return inv


def is_group(table):
    n = len(table)
    for row in table:
        if sorted(row) != list(range(n)):
            return False
    for col in zip(*table):
        if sorted(col) != list(range(n)):
            return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    try:
        identity_of(table)
    except ValueError:
        return False
    return True


def is_skew_brace(dot, circ):
    if not (is_group(dot) and is_group(circ)):
        return False
    if identity_of(dot) != identity_of(circ):
        return False
    n = len(dot)
    inv = inverses_of(dot)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = circ[a][dot[b][c]]
                rhs = dot[dot[circ[a][b]][inv[a]]][circ[a][c]]
                if lhs != rhs:
                    return False
    return True


# The public functions below scan for the identity and the inverses once
# per call and hand them to the private ones, which take them as given.

def lam(dot, circ, a, b):
    return _lam(dot, circ, inverses_of(dot), a, b)


def _lam(dot, circ, inv, a, b):
    return dot[inv[a]][circ[a][b]]


def star(dot, circ, a, b):
    return _star(dot, circ, inverses_of(dot), a, b)


def _star(dot, circ, inv, a, b):
    return dot[_lam(dot, circ, inv, a, b)][inv[b]]


def star_table(dot, circ):
    n = len(dot)
    inv = inverses_of(dot)
    return [[_star(dot, circ, inv, a, b) for b in range(n)] for a in range(n)]


# ------------------------------------------------------------- subgroups

def closure(table, gens):
    return _closure(table, identity_of(table), gens)


def _closure(table, e, gens):
    """Breadth-first from the identity, each round multiplying only the
    newest elements by the generators: in a finite group the words in
    the generators, without inverses, are the whole subgroup."""
    cur, frontier = {e}, {e}
    while frontier:
        frontier = {table[a][g] for a in frontier for g in gens} - cur
        cur |= frontier
    return frozenset(cur)


def is_subgroup(table, s):
    """s holds the identity and the products and inverses of its own."""
    inv, s = inverses_of(table), set(s)
    return identity_of(table) in s and all(
        table[a][b] in s and inv[a] in s for a in s for b in s)


def is_normal(table, s):
    """s is a subgroup with a.x.a^-1 in it for every a and every x in it."""
    inv, s = inverses_of(table), set(s)
    return is_subgroup(table, s) and all(
        table[table[a][x]][inv[a]] in s for a in range(len(table)) for x in s)


def normal_closure(table, gens):
    n = len(table)
    e = identity_of(table)
    inv = _inverses(table, e)
    gens = set(gens)
    while True:
        cur = _closure(table, e, gens)
        conj = {table[table[a][x]][inv[a]] for a in range(n) for x in cur}
        if conj <= cur:
            return cur
        gens = cur | conj


def center(table):
    n = len(table)
    return frozenset(g for g in range(n)
                     if all(table[g][x] == table[x][g] for x in range(n)))


def commutator(table, a, b):
    return _commutator(table, inverses_of(table), a, b)


def _commutator(table, inv, a, b):
    return table[table[table[a][b]][inv[a]]][inv[b]]


# ---------------------------------------------------------------- series

def left_series(dot, circ, max_n=10):
    """Carrier sets of H, H star H, H star (H star H), ..."""
    n = len(dot)
    st = star_table(dot, circ)
    terms = [frozenset(range(n))]
    while len(terms) <= max_n:
        prev = terms[-1]
        gens = {st[a][x] for a in range(n) for x in prev}
        nxt = closure(dot, gens)
        terms.append(nxt)
        if nxt == prev or len(nxt) == 1:
            break
    return terms


def right_series(dot, circ, max_n=10):
    n = len(dot)
    st = star_table(dot, circ)
    terms = [frozenset(range(n))]
    while len(terms) <= max_n:
        prev = terms[-1]
        gens = {st[x][a] for x in prev for a in range(n)}
        nxt = closure(dot, gens)
        terms.append(nxt)
        if nxt == prev or len(nxt) == 1:
            break
    return terms


def gamma_series(dot, circ, max_n=10):
    n = len(dot)
    inv = inverses_of(dot)
    st = star_table(dot, circ)
    terms = [frozenset(range(n))]
    while len(terms) <= max_n:
        prev = terms[-1]
        gens = set()
        for i in prev:
            for h in range(n):
                gens.add(st[i][h])
                gens.add(st[h][i])
                gens.add(_commutator(dot, inv, h, i))
        nxt = closure(dot, gens)
        terms.append(nxt)
        if nxt == prev or len(nxt) == 1:
            break
    return terms


def huq_commutator(dot, circ, carrier):
    n = len(dot)
    dinv, cinv = inverses_of(dot), inverses_of(circ)
    st = star_table(dot, circ)
    gens = set()
    for i in carrier:
        for h in range(n):
            gens.add(_commutator(dot, dinv, i, h))
            gens.add(_commutator(circ, cinv, i, h))
            gens.add(st[i][h])
    return normal_closure(dot, gens)


def relative_commutator(dot, circ, carrier):
    n = len(dot)
    e = identity_of(dot)
    inv = _inverses(dot, e)
    st = star_table(dot, circ)
    gens = set()
    for i in carrier:
        for h in range(n):
            gens.add(st[i][h])
            s = st[h][i]
            gens.add(s)
            for k in range(n):
                gens.add(dot[dot[k][s]][inv[k]])
    return _closure(dot, e, gens)


# ------------------------------------------------------------ socle etc.

def soc_carrier(dot, circ):
    n = len(dot)
    inv = inverses_of(dot)
    return frozenset(g for g in center(dot)
                     if all(_lam(dot, circ, inv, g, b) == b
                            for b in range(n)))


def ann_carrier(dot, circ):
    n = len(dot)
    inv = inverses_of(dot)
    return frozenset(g for g in soc_carrier(dot, circ)
                     if all(_lam(dot, circ, inv, b, g) == g
                            for b in range(n)))


def star_closure(dot, circ):
    n = len(dot)
    st = star_table(dot, circ)
    return closure(dot, {st[a][b] for a in range(n) for b in range(n)})


def ab_closure(dot, circ):
    n = len(dot)
    st = star_table(dot, circ)
    gens = {st[a][b] for a in range(n) for b in range(n)}
    inv = inverses_of(dot)
    gens |= {_commutator(dot, inv, a, b) for a in range(n) for b in range(n)}
    return normal_closure(dot, gens)


def is_normal_subbrace(dot, circ, carrier):
    """Definition-based: dot-normal, circ-normal, lambda-stable."""
    n = len(dot)
    dinv = inverses_of(dot)
    cinv = inverses_of(circ)
    s = set(carrier)
    for a in range(n):
        for b in s:
            if dot[dot[a][b]][dinv[a]] not in s:
                return False
            if circ[circ[a][b]][cinv[a]] not in s:
                return False
            if _lam(dot, circ, dinv, a, b) not in s:
                return False
    return True


def is_normal_via_star(dot, circ, carrier):
    """Equivalent characterization: dot-normal plus two-sided star absorption."""
    n = len(dot)
    dinv = inverses_of(dot)
    s = set(carrier)
    for a in range(n):
        for b in s:
            if dot[dot[a][b]][dinv[a]] not in s:
                return False
            if _star(dot, circ, dinv, a, b) not in s:
                return False
            if _star(dot, circ, dinv, b, a) not in s:
                return False
    return True


def quotient_by_cosets(table, carrier):
    """Left cosets g N listed by least element, the class of each element,
    and the product table of the representatives' classes."""
    cosets = sorted({frozenset(table[a][x] for x in carrier)
                     for a in range(len(table))}, key=min)
    proj = [next(i for i, c in enumerate(cosets) if a in c)
            for a in range(len(table))]
    reps = [min(c) for c in cosets]
    return [[proj[table[a][b]] for b in reps] for a in reps], proj


def all_subgroups(table):
    """Every subgroup of the table's group, by closure BFS: each subgroup
    is closed from the generators that first reached it, plus one more
    element."""
    n = len(table)
    e = identity_of(table)
    trivial = frozenset([e])
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in range(n):
                if g in sub:
                    continue
                gens = found[sub] + (g,)
                bigger = _closure(table, e, gens)
                if bigger not in found:
                    found[bigger] = gens
                    nxt.append(bigger)
        frontier = nxt
    return set(found)


def subgroups(table):
    """``all_subgroups`` as sorted tuples, smallest first, computed once
    per table (a list of rows or anything with ``tolist``)."""
    rows = table.tolist() if hasattr(table, "tolist") else table
    return _subgroups(tuple(map(tuple, rows)))


@cache
def _subgroups(rows):
    return sorted((tuple(sorted(s)) for s in all_subgroups(rows)),
                  key=lambda s: (len(s), s))


def central_hopfcoc(dot, circ, kernel):
    n = len(dot)
    e = identity_of(dot)
    st = star_table(dot, circ)
    for i in sorted(kernel):
        for h in range(n):
            if st[i][h] != e or st[h][i] != e:
                return False, (i, h)
    return True, None


def central_huq(dot, circ, kernel):
    for k in sorted(kernel):
        for a in range(len(dot)):
            vals = {dot[a][k], dot[k][a], circ[a][k], circ[k][a]}
            if len(vals) != 1:
                return False, (k, a)
    return True, None
