"""An independent reference for element arithmetic: dicts of exact scalars.

Every coefficient is its own ``Fraction`` in characteristic 0 and its own
int in ``[0, p)`` in GF(p), combined term by term, the way
``hopfbrace.hopf`` kept elements before it stored integer numerators over
one denominator.  It reads only Cayley tables and index maps, so the
tests can compare two implementations of the same arithmetic.
"""

from fractions import Fraction


def scalar(c, p: int):
    c = Fraction(c)
    if not p:
        return c
    return c.numerator * pow(c.denominator, -1, p) % p


def clean(terms: dict, p: int) -> dict:
    if p:
        terms = {k: v % p for k, v in terms.items()}
    return {k: v for k, v in terms.items() if v}


def make(pairs, p: int) -> dict:
    """Sum of ``(key, scalar)`` pairs; a key may repeat."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + scalar(c, p)
    return clean(out, p)


def add(x: dict, y: dict, p: int) -> dict:
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return clean(out, p)


def scale(x: dict, c, p: int) -> dict:
    c = scalar(c, p)
    return clean({k: c * v for k, v in x.items()}, p)


def bilinear(table, x: dict, y: dict, p: int) -> dict:
    """``table[g][h]`` is the basis product of g and h."""
    out = {}
    for g, a in x.items():
        for h, b in y.items():
            k = int(table[g][h])
            out[k] = out.get(k, 0) + a * b
    return clean(out, p)


def relabel(mapping, x: dict, p: int) -> dict:
    """The linear extension of the basis map ``g -> mapping[g]``."""
    return make(((int(mapping[g]), c) for g, c in x.items()), p)


def counit(x: dict, p: int):
    return sum(x.values(), Fraction(0)) if not p else sum(x.values()) % p


def comultiply(x: dict) -> dict:
    return {(g, g): c for g, c in x.items()}


def pair(x: dict, y: dict, p: int) -> dict:
    return clean({(g, h): a * b for g, a in x.items()
                  for h, b in y.items()}, p)


NONZERO_NUMERATORS = tuple(k for k in range(-9, 10) if k)


def random_element(H, rng, terms: int = 2):
    """The construction ``hopfbrace.hopf.random_element`` used before it
    built int numerators over one denominator: a ``Fraction`` per
    coefficient over QQ, handed to ``H.element``.  It makes the same RNG
    calls in the same order."""
    support = rng.sample(range(H.dim), min(terms, H.dim))
    coeffs = {}
    for g in support:
        if H.characteristic == 0:
            num = rng.choice(NONZERO_NUMERATORS)
            coeffs[g] = Fraction(num, rng.randint(1, 4))
        else:
            coeffs[g] = rng.randint(1, H.characteristic - 1)
    return H.element(coeffs)
