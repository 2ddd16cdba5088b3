"""Central series, commutators, socle/annihilator and abelianisations.

Series terms are generated from group-like generator images only, which
is sound here because every Hopf subalgebra of a group algebra in
characteristic zero is a subgroup algebra.  The gamma series carries an
enforced per-step cross-check against the Huq commutator.  The
abelianisations are quotients by generated subbraces; ``quotient``
checks, rather than assumes, that these are normal.  Every series term,
commutator, socle, annihilator and center enters ``Subbrace`` as a
carrier mask: the dot group's closures and center return masks.  The
coincidence orbits are read off their leaders, the g with label[g] == g,
with no call to numpy's ``unique``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrossCheckError, PrimeFieldError
from .hopf import Element, HopfBrace
from .linalg import Subspace, common_nullspace, indicator, span_of_indices
from .skewbrace import _nonzero
from .subobjects import (HopfMorphism, Subbrace, _require_normal,
                         generated_subbrace, quotient, whole_subbrace)


@dataclass
class SeriesResult:
    kind: str                      # "left" | "right" | "gamma"
    terms: list[Subbrace]
    generators: list[tuple[int, ...]]   # generators[i] generated terms[i]
    stabilized: bool
    nil_class: int | None

    def sizes(self) -> list[int]:
        return [t.dim for t in self.terms]


def _run_series(H: HopfBrace, kind: str, max_n: int, step) -> SeriesResult:
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    terms = [whole_subbrace(H)]
    gens: list[tuple[int, ...]] = [()]
    stabilized = False
    while len(terms) < max_n and not terms[-1].is_trivial():
        new_gens = _nonzero(step(terms[-1].elements))
        nxt = generated_subbrace(H, new_gens)
        terms.append(nxt)
        gens.append(tuple(new_gens.tolist()))
        if nxt.carrier == terms[-2].carrier:
            stabilized = True
            break
    if terms[0].is_trivial():
        stabilized = True
    nil_class = len(terms) if terms[-1].is_trivial() else None
    return SeriesResult(kind, terms, gens, stabilized, nil_class)


def left_series(H: HopfBrace, max_n: int = 10) -> SeriesResult:
    """H, H*H, H*(H*H), ...; every term is a strong subbrace."""
    st, dot = H.base.star_table, H.base.dot
    return _run_series(H, "left", max_n, lambda c: dot._mask(st[:, c]))


def right_series(H: HopfBrace, max_n: int = 10) -> SeriesResult:
    """H, H*H, (H*H)*H, ...; every term is a normal subbrace."""
    st, dot = H.base.star_table, H.base.dot
    return _run_series(H, "right", max_n, lambda c: dot._mask(st[c]))


def gamma_series(H: HopfBrace, max_n: int = 10) -> SeriesResult:
    """Lower central series from star values and dot-commutators; each
    step is cross-checked against the Huq commutator with the whole brace."""
    st, dot = H.base.star_table, H.base.dot

    def step(c):            # st[i, h], st[h, i] and [h, i] for i in c
        comm = dot.table[dot.conj_table[:, c], dot.inverses[c]]
        return dot._mask(st[c]) | dot._mask(st[:, c]) | dot._mask(comm)

    result = _run_series(H, "gamma", max_n, step)
    for n in range(1, len(result.terms)):
        huq = huq_commutator(result.terms[n - 1], H)
        if huq.carrier != result.terms[n].carrier:
            raise CrossCheckError(
                f"gamma term {n + 1} differs from the Huq commutator: "
                f"{result.terms[n].carrier} vs {huq.carrier}")
    return result


def relative_commutator(I: Subbrace, H: HopfBrace) -> Subbrace:
    """Commutator relative to the plain-Hopf-algebra adjunction: generated
    by i*h, h*i and all dot-conjugates of the h*i family."""
    _require_normal(I, H)
    st, dot, c = H.base.star_table, H.base.dot, I.elements
    hi = dot._mask(st[:, c])
    gens = dot._mask(st[c]) | dot._mask(dot.conj_table[:, hi])
    return generated_subbrace(H, _nonzero(gens))


def huq_commutator(I: Subbrace, H: HopfBrace) -> Subbrace:
    """Huq commutator [I, H]: normal closure of both kinds of commutators
    together with the one-sided star values."""
    _require_normal(I, H)
    base, c = H.base, I.elements
    dot, circ = base.dot, base.circ
    gens = (dot._mask(dot.table[dot.conj_table[c], dot.inverses])
            | dot._mask(circ.table[circ.conj_table[c], circ.inverses])
            | dot._mask(base.star_table[c]))
    return Subbrace._of_mask(H, dot.normal_closure(_nonzero(gens)))


def hopf_center(H: HopfBrace) -> Subbrace:
    """The Hopf center of the dot-structure: for a group algebra with
    diagonal comultiplication this is the subgroup algebra of the
    group-theoretic center."""
    return Subbrace._of_mask(H, H.base.dot.center())


# ------------------------------------------------------- socle/annihilator

@dataclass
class SocleData:
    socle: Subbrace
    annihilator: Subbrace
    socle_space: Subspace
    annihilator_space: Subspace

    @property
    def socle_span(self) -> Subspace:
        return span_of_indices(self.socle.carrier, self.socle_space.ambient)

    @property
    def annihilator_span(self) -> Subspace:
        return span_of_indices(self.annihilator.carrier,
                               self.annihilator_space.ambient)

    @property
    def socle_strict(self) -> bool:
        """True when the socle space strictly exceeds the group-like span."""
        return self.socle_space.dim > self.socle.dim

    @property
    def annihilator_strict(self) -> bool:
        return self.annihilator_space.dim > self.annihilator.dim


def _fiber_rows(table, domain: list[int], skip) -> list[Element]:
    """For each column h, one 0/1 row per fiber of g -> table[g, h] over
    ``domain`` except the fiber of value ``skip[h]``, g given by its place
    in ``domain``; distinct and sorted, cut from one stable key sort."""
    sub = table[domain]
    pos, h = (sub != np.asarray(skip)).nonzero()
    keys = h * sub.shape[1] + sub[pos, h]
    order = keys.argsort(kind="stable")
    keys, pos = keys[order], pos[order].tolist()
    cuts = [0, *((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist(), len(pos)]
    return [indicator(f) for f in sorted(
        {tuple(pos[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b})]


def _check_group_likes(data: SocleData) -> SocleData:
    """The group-likes of each solution space must be exactly the carrier
    from the lambda table and the center.  A space holds e_g iff its
    canonical row at pivot g is e_g: each v in it is sum_p v[p] * row_p."""
    for name, sub, space in (
            ("socle", data.socle, data.socle_space),
            ("annihilator", data.annihilator, data.annihilator_space)):
        found = tuple(min(r.nums) for r in space.rows
                      if r.den == 1 and list(r.nums.values()) == [1])
        if found != sub.carrier:
            raise CrossCheckError(
                f"group-likes of the {name} space {found} differ from the "
                f"{name} carrier {sub.carrier}")
    return data


def socle_annihilator(H: HopfBrace) -> SocleData:
    """Socle and annihilator, both as group-like carriers and as exact
    solution spaces of the defining linear systems.  The two computations
    are independent and cross-checked: the group-likes of each space are
    exactly the matching carrier, while a strict inclusion of the span is
    reported rather than asserted away.  Both spaces lie in span{e_z : z
    central}, so they are solved in the sorted center's coordinates; the
    embedding back keeps index order, so the bases stay canonical."""
    if H.characteristic:
        raise PrimeFieldError(
            "socle/annihilator computation is defined over the rationals only")
    base = H.base
    n = H.dim
    central = base.dot.center()
    center = _nonzero(central).tolist()
    st = base.star_table
    fixed = base.lambda_table == np.arange(n)        # lambda_g(b) == b
    soc_mask = central & fixed.all(axis=1)
    ann_mask = soc_mask & fixed.all(axis=0)

    skip = [base.identity] * n
    soc_rows = _fiber_rows(st, center, skip)
    ann_rows = soc_rows + _fiber_rows(st.T, center, skip)

    def solve(rows):            # over the center, then e_i -> e_center[i]
        return Subspace(n, tuple(Element._canonical(
            {center[i]: x for i, x in r.nums.items()}, r.den, 0)
            for r in common_nullspace(rows, len(center)).rows))

    return _check_group_likes(SocleData(
        socle=Subbrace._of_mask(H, soc_mask),
        annihilator=Subbrace._of_mask(H, ann_mask),
        socle_space=solve(soc_rows),
        annihilator_space=solve(ann_rows),
    ))


# ----------------------------------------------------------- abelianisation

def star_closure_subbrace(H: HopfBrace) -> Subbrace:
    """The subobject generated by all star values (the second right-series
    term)."""
    star_values = H.base.dot._mask(H.base.star_table)
    return generated_subbrace(H, _nonzero(star_values))


def star_abelianization(H: HopfBrace) -> tuple[HopfBrace, HopfMorphism]:
    """Universal quotient on which the two products coincide: quotient by
    the star closure H*H, an ideal."""
    Q, pi = quotient(H, star_closure_subbrace(H))
    if not Q.base.is_trivial():
        raise CrossCheckError("star-abelianization is not a trivial brace")
    return Q, pi


def full_abelianization(H: HopfBrace) -> tuple[HopfBrace, HopfMorphism]:
    """Universal commutative quotient by the subbrace generated by star
    values and dot-commutators: the ideal H*H joined with the dot-normal
    [G, G], so dot-normal."""
    base, dot = H.base, H.base.dot
    gens = (dot._mask(base.star_table)
            | dot._mask(dot.table[dot.conj_table, dot.inverses]))
    Q, pi = quotient(H, generated_subbrace(H, _nonzero(gens)))
    qt = Q.base.dot.table
    if not Q.base.is_trivial() or not (qt == qt.T).all():
        raise CrossCheckError(
            "full abelianization is not a commutative trivial brace")
    return Q, pi


# --------------------------------------------------------------- nilpotency

@dataclass
class NilpotencyReport:
    max_n: int
    left: SeriesResult
    right: SeriesResult
    gamma: SeriesResult
    left_class: int | None
    right_class: int | None
    gamma_class: int | None
    adjunction_class: int | None   # least n with [H^(n), H] trivial


def nilpotency_report(H: HopfBrace, max_n: int = 10) -> NilpotencyReport:
    left = left_series(H, max_n)
    right = right_series(H, max_n)
    gamma = gamma_series(H, max_n)
    adjunction_class = None
    for n, term in enumerate(right.terms, start=1):
        if relative_commutator(term, H).is_trivial():
            adjunction_class = n
            break
    return NilpotencyReport(
        max_n=max_n, left=left, right=right, gamma=gamma,
        left_class=left.nil_class, right_class=right.nil_class,
        gamma_class=gamma.nil_class, adjunction_class=adjunction_class)


# ------------------------------------------------- coincidence diagnostics

@dataclass
class CoincidenceReport:
    """Exact comparison of two conditions on elements a that coincide on
    group-likes but not in general: acting trivially (a*b = eps(a)eps(b)1
    for all b) versus the two products agreeing (a.b = a o b for all b).
    Separators witness that neither condition implies the other."""
    star_trivial_space: Subspace
    coincidence_space: Subspace
    separator_star_only: Element | None = field(default=None)
    separator_coincidence_only: Element | None = field(default=None)

    @property
    def equivalent(self) -> bool:
        return (self.separator_star_only is None
                and self.separator_coincidence_only is None)


def coincidence_report(H: HopfBrace) -> CoincidenceReport:
    """The star-trivial space solves the fiber rows of lambda; the
    coincidence space needs no elimination.  For fixed h and x both
    tables are Latin squares, so exactly one g has g.h = x and exactly one
    g' has g' o h = x: every coincidence row is e_g - e_g'.  A vector
    solves them all iff it is constant on the orbits of the permutations
    g -> g' (one per h), so the orbit indicators, sorted by least element,
    are the space's canonical reduced echelon basis.  Equal canonical
    bases mean equal spaces, with no separators to search for."""
    if H.characteristic:
        raise PrimeFieldError("coincidence diagnostics need rationals")
    base = H.base
    n = H.dim
    domain = list(range(n))
    star_space = common_nullspace(
        _fiber_rows(base.lambda_table, domain, domain), n)

    cols = np.arange(n)
    # moves[g, h] = g' with g' o h = g.h (argsort inverts each column of
    # the circ table); column e is the identity map, so each min-label
    # step can only lower the labels
    moves = np.argsort(base.circ.table, axis=0)[base.dot.table, cols]
    label = cols
    while (label != (nxt := label[moves].min(axis=1))).any():
        label = nxt
    coin_space = Subspace(n, tuple(
        indicator(_nonzero(label == least).tolist())
        for least in _nonzero(label == cols)))        # orbit leaders

    differ = star_space != coin_space
    sep_star = next((r for r in star_space.rows
                     if differ and not coin_space.contains(r)), None)
    sep_coin = next((r for r in coin_space.rows
                     if differ and not star_space.contains(r)), None)
    return CoincidenceReport(star_space, coin_space, sep_star, sep_coin)
