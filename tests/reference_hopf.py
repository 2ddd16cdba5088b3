"""An independent reference for element arithmetic: dicts of exact scalars.

Every coefficient is its own ``Fraction``, combined term by term, the way
``hopfbrace.hopf`` kept elements before it stored integer numerators over
one denominator.  It reads only Cayley tables and index maps, so the
tests can compare two implementations of the same arithmetic.
"""

from fractions import Fraction


def clean(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


def make(pairs) -> dict:
    """Sum of ``(key, scalar)`` pairs; a key may repeat."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + Fraction(c)
    return clean(out)


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return clean(out)


def scale(x: dict, c) -> dict:
    c = Fraction(c)
    return clean({k: c * v for k, v in x.items()})


def bilinear(table, x: dict, y: dict) -> dict:
    """``table[g][h]`` is the basis product of g and h."""
    out = {}
    for g, a in x.items():
        for h, b in y.items():
            k = int(table[g][h])
            out[k] = out.get(k, 0) + a * b
    return clean(out)


def relabel(mapping, x: dict) -> dict:
    """The linear extension of the basis map ``g -> mapping[g]``."""
    return make((int(mapping[g]), c) for g, c in x.items())


def counit(x: dict):
    return sum(x.values(), Fraction(0))


def comultiply(x: dict) -> dict:
    return {(g, g): c for g, c in x.items()}


def pair(x: dict, y: dict) -> dict:
    return clean({(g, h): a * b for g, a in x.items() for h, b in y.items()})


NONZERO_NUMERATORS = tuple(k for k in range(-9, 10) if k)


def random_element(H, rng, terms: int = 2):
    """The construction ``hopfbrace.hopf.random_element`` used before it
    built int numerators over one denominator: a ``Fraction`` per
    coefficient, handed to ``H.element``.  It makes the same RNG calls in
    the same order."""
    support = rng.sample(range(H.dim), min(terms, H.dim))
    coeffs = {}
    for g in support:
        num = rng.choice(NONZERO_NUMERATORS)
        coeffs[g] = Fraction(num, rng.randint(1, 4))
    return H.element(coeffs)
