"""Every skew brace on one Cayley table per group of order 2-10 and 12,
as labelled (dot, circ) tables.

A skew brace on a group A is a map lambda: A -> Aut(A) with
lambda_e = id and lambda_{a.lambda_a(b)} = lambda_a lambda_b; then
a o b = a.lambda_a(b) (Guarnieri-Vendramin 2017, Math. Comp. 86, §4).
The search assigns lambda at the least element not yet reached and closes
the assigned set under o, so each map is found once and Hol(A) is never
formed.  Aut(A) comes from generator images.  Like ``oracle``, nothing
here imports the package under test.
"""

from functools import cache
from itertools import product

from oracle import (closure, cyclic_table, dihedral_table, identity_of,
                    product_table, symmetric_table)


def dicyclic_table(n):
    """Order 4n: a^k x^s with x^2 = a^n and x a x^-1 = a^-1; index k + 2n s."""
    m = 2 * n

    def mul(p, q):
        (s, k), (t, l) = divmod(p, m), divmod(q, m)
        k = (k + (l if s == 0 else -l) + (n if s and t else 0)) % m
        return k + m * ((s + t) % 2)
    return [[mul(p, q) for q in range(2 * m)] for p in range(2 * m)]


def alternating_table_4():
    """A4: the even permutations of range(4), in sorted order."""
    table, elems = symmetric_table(4)
    even = [i for i, p in enumerate(elems)
            if sum(p[a] > p[b] for b in range(4) for a in range(b)) % 2 == 0]
    index = {g: i for i, g in enumerate(even)}
    return [[index[table[a][b]] for b in even] for a in even]


C2, C3, C4, C6 = (cyclic_table(n) for n in (2, 3, 4, 6))
GROUPS = {
    2: {"C2": C2},
    3: {"C3": C3},
    4: {"C4": C4, "C2xC2": product_table(C2, C2)},
    5: {"C5": cyclic_table(5)},
    6: {"C6": C6, "S3": symmetric_table(3)[0]},
    7: {"C7": cyclic_table(7)},
    8: {"C8": cyclic_table(8), "C4xC2": product_table(C4, C2),
        "C2^3": product_table(product_table(C2, C2), C2),
        "D4": dihedral_table(4), "Q8": dicyclic_table(2)},
    9: {"C9": cyclic_table(9), "C3xC3": product_table(C3, C3)},
    10: {"C10": cyclic_table(10), "D5": dihedral_table(5)},
    12: {"C12": cyclic_table(12), "C6xC2": product_table(C6, C2),
         "A4": alternating_table_4(), "D6": dihedral_table(6),
         "Dic3": dicyclic_table(3)},
}


def _orders(table):
    e = identity_of(table)
    out = []
    for g in range(len(table)):
        k, x = 1, g
        while x != e:
            k, x = k + 1, table[x][g]
        out.append(k)
    return out


def _spread(table, e, gens, images):
    """The map e -> e, x.g -> phi(x).image spread along every edge of the
    Cayley graph, or None when two paths give an element two images."""
    phi = {e: e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(gens, images):
                y, fy = table[x][g], table[phi[x]][img]
                if y not in phi:
                    phi[y] = fy
                    nxt.append(y)
                elif phi[y] != fy:
                    return None
        frontier = nxt
    return phi


def automorphisms(table):
    """Aut(A) as image tuples.  The generators are taken greedily, largest
    order first; images of the same orders give an automorphism when they
    spread without a clash onto every element."""
    n, e = len(table), identity_of(table)
    order = _orders(table)
    gens = []
    for g in sorted(range(n), key=lambda g: (-order[g], g)):
        if g not in closure(table, gens):
            gens.append(g)
    auts = []
    for images in product(*([h for h in range(n) if order[h] == order[g]]
                            for g in gens)):
        phi = _spread(table, e, gens, images)
        if phi is not None and len(set(phi.values())) == n:
            auts.append(tuple(phi[x] for x in range(n)))
    return auts


def lambda_maps(table):
    """Every lambda map on the group, as the list of the image tuples of
    lambda_g, g = 0, 1, ...."""
    n, e = len(table), identity_of(table)
    auts = automorphisms(table)
    index = {f: i for i, f in enumerate(auts)}
    comp = [[index[tuple(f[g[x]] for x in range(n))] for g in auts]
            for f in auts]

    def extend(lam, a, f):
        """lam with lam[a] = f, closed under o; None on a clash."""
        lam = lam[:]
        lam[a] = f
        assigned = [x for x in range(n) if lam[x] is not None]
        queue = [a]
        while queue:
            x = queue.pop()
            for y in list(assigned):
                for p, q in ((x, y), (y, x)):
                    c, h = table[p][auts[lam[p]][q]], comp[lam[p]][lam[q]]
                    if lam[c] is None:
                        lam[c] = h
                        assigned.append(c)
                        queue.append(c)
                    elif lam[c] != h:
                        return None
        return lam

    def search(lam):
        a = next((x for x in range(n) if lam[x] is None), None)
        if a is None:
            yield [auts[f] for f in lam]
            return
        for f in range(len(auts)):
            nxt = extend(lam, a, f)
            if nxt is not None:
                yield from search(nxt)

    yield from search(extend([None] * n, e, index[tuple(range(n))]))


def classes(order):
    """The skew braces of this order up to isomorphism: the Aut(A)-orbits
    of ``lambda_maps`` on each group A, where phi sends lambda to the map
    phi(a) -> phi lambda_a phi^-1.  Two labelled braces on one table are
    isomorphic iff such a phi joins their lambda maps, so the count needs
    nothing from the search beyond its output."""
    count = 0
    for table in GROUPS[order].values():
        n, auts = len(table), automorphisms(table)
        seen = set()
        for lam in map(tuple, lambda_maps(table)):
            if lam in seen:
                continue
            count += 1
            for phi in auts:
                inv = sorted(range(n), key=phi.__getitem__)
                moved = [None] * n
                for a, f in enumerate(lam):
                    moved[phi[a]] = tuple(phi[f[inv[x]]] for x in range(n))
                seen.add(tuple(moved))
    return count


@cache
def braces(order):
    """(group name, dot table, circ table) for every labelled skew brace
    of this order, a o b = a.lambda_a(b)."""
    return tuple(
        (name, dot, [[dot[a][lam[a][b]] for b in range(order)]
                     for a in range(order)])
        for name, dot in GROUPS[order].items() for lam in lambda_maps(dot))
