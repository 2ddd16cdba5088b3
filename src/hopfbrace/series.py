"""Central series, commutators, socle/annihilator and abelianisations.

Series terms are generated from group-like generator images only, which
is sound here because every Hopf subalgebra of a group algebra in
characteristic zero is a subgroup algebra.  The gamma series carries an
enforced per-step cross-check against the Huq commutator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrossCheckError, NormalityError, PrimeFieldError
from .hopf import HopfBrace
from .linalg import SparseVector, Subspace, common_nullspace, span_of_indices
from .subobjects import (HopfMorphism, Subbrace, generated_subbrace, quotient,
                         whole_subbrace)


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
        new_gens = np.flatnonzero(step(terms[-1].elements))
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
    return _run_series(H, "left", max_n, lambda c: dot.mask(st[:, c]))


def right_series(H: HopfBrace, max_n: int = 10) -> SeriesResult:
    """H, H*H, (H*H)*H, ...; every term is a normal subbrace."""
    st, dot = H.base.star_table, H.base.dot
    return _run_series(H, "right", max_n, lambda c: dot.mask(st[c]))


def gamma_series(H: HopfBrace, max_n: int = 10) -> SeriesResult:
    """Lower central series from star values and dot-commutators; each
    step is cross-checked against the Huq commutator with the whole brace."""
    st, dot = H.base.star_table, H.base.dot

    def step(c):            # st[i, h], st[h, i] and [h, i] for i in c
        comm = dot.table[dot.conj_table[:, c], dot.inverses[c]]
        return dot.mask(st[c]) | dot.mask(st[:, c]) | dot.mask(comm)

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
    if I.parent != H:
        raise ValueError("subbrace does not belong to this Hopf brace")
    if not I.is_normal():
        raise NormalityError(f"carrier {I.carrier} is not normal")
    st, dot, c = H.base.star_table, H.base.dot, I.elements
    hi = np.flatnonzero(dot.mask(st[:, c]))
    gens = dot.mask(st[c]) | dot.mask(dot.conj_table[:, hi])
    return generated_subbrace(H, np.flatnonzero(gens))


def huq_commutator(I: Subbrace, H: HopfBrace) -> Subbrace:
    """Huq commutator [I, H]: normal closure of both kinds of commutators
    together with the one-sided star values."""
    if I.parent != H:
        raise ValueError("subbrace does not belong to this Hopf brace")
    if not I.is_normal():
        raise NormalityError(f"carrier {I.carrier} is not normal")
    base, c = H.base, I.elements
    dot, circ = base.dot, base.circ
    gens = (dot.mask(dot.table[dot.conj_table[c], dot.inverses])
            | dot.mask(circ.table[circ.conj_table[c], circ.inverses])
            | dot.mask(base.star_table[c]))
    return Subbrace(H, dot.normal_closure(np.flatnonzero(gens)))


def hopf_center(H: HopfBrace) -> Subbrace:
    """The Hopf center of the dot-structure: for a group algebra with
    diagonal comultiplication this is the subgroup algebra of the
    group-theoretic center."""
    return Subbrace(H, H.base.dot.center())


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


def _fiber_rows(table, domain: list[int], skip) -> list[SparseVector]:
    """For each column h, one 0/1 row per fiber of g -> table[g, h] over
    ``domain``, leaving out the fiber of value ``skip[h]``; the rows are
    distinct and sorted."""
    fibers = set()
    for h, column in enumerate(table[domain].T.tolist()):
        by_value: dict[int, list[int]] = {}
        for g, x in zip(domain, column):
            by_value.setdefault(x, []).append(g)
        by_value.pop(skip[h], None)
        fibers.update(map(tuple, by_value.values()))
    return [SparseVector(dict.fromkeys(f, 1)) for f in sorted(fibers)]


def _check_group_likes(data: SocleData) -> SocleData:
    """The group-likes {g : e_g in space} of each solution space must be
    exactly the carrier computed from the lambda table and the center."""
    for name, sub, space in (
            ("socle", data.socle, data.socle_space),
            ("annihilator", data.annihilator, data.annihilator_space)):
        found = tuple(g for g in range(space.ambient)
                      if space.contains(SparseVector({g: 1})))
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
    reported rather than asserted away."""
    if H.field.characteristic != 0:
        raise PrimeFieldError(
            "socle/annihilator computation is defined over the rationals only")
    base = H.base
    n = H.dim
    center = list(base.dot.center())
    central = base.dot.mask(center)
    st = base.star_table
    fixed = base.lambda_table == np.arange(n)        # lambda_g(b) == b
    soc_mask = central & fixed.all(axis=1)
    ann_mask = soc_mask & fixed.all(axis=0)

    skip = [base.identity] * n
    outside = [SparseVector({g: 1}) for g in np.flatnonzero(~central)]
    soc_rows = outside + _fiber_rows(st, center, skip)
    ann_rows = soc_rows + _fiber_rows(st.T, center, skip)

    return _check_group_likes(SocleData(
        socle=Subbrace(H, np.flatnonzero(soc_mask)),
        annihilator=Subbrace(H, np.flatnonzero(ann_mask)),
        socle_space=common_nullspace(soc_rows, n),
        annihilator_space=common_nullspace(ann_rows, n),
    ))


# ----------------------------------------------------------- abelianisation

def star_closure_subbrace(H: HopfBrace) -> Subbrace:
    """The subobject generated by all star values (the second right-series
    term)."""
    return generated_subbrace(H, H.base.star_image())


def star_abelianization(H: HopfBrace) -> tuple[HopfBrace, HopfMorphism]:
    """Universal quotient on which the two products coincide: quotient by
    the star closure.  The generated subgroup is provably normal already;
    the normal closure below is a defensive no-op."""
    carrier = H.base.dot.normal_closure(H.base.star_image())
    Q, pi = quotient(H, Subbrace(H, carrier))
    if not Q.base.is_trivial():
        raise CrossCheckError("star-abelianization is not a trivial brace")
    return Q, pi


def full_abelianization(H: HopfBrace) -> tuple[HopfBrace, HopfMorphism]:
    """Universal commutative quotient: divide out star values and
    dot-commutators."""
    base, dot = H.base, H.base.dot
    gens = (dot.mask(base.star_table)
            | dot.mask(dot.table[dot.conj_table, dot.inverses]))
    carrier = dot.normal_closure(np.flatnonzero(gens))
    Q, pi = quotient(H, Subbrace(H, carrier))
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

    def is_nilpotent_any(self) -> bool:
        return any(c is not None for c in
                   (self.left_class, self.right_class,
                    self.gamma_class, self.adjunction_class))


def nilpotency_report(H: HopfBrace, max_n: int = 10) -> NilpotencyReport:
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
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
    separator_star_only: SparseVector | None = field(default=None)
    separator_coincidence_only: SparseVector | None = field(default=None)

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
    are the space's canonical reduced echelon basis."""
    if H.field.characteristic != 0:
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
        SparseVector(dict.fromkeys(np.flatnonzero(label == least), 1))
        for least in np.unique(label)))

    sep_star = next((r for r in star_space.rows if not coin_space.contains(r)),
                    None)
    sep_coin = next((r for r in coin_space.rows if not star_space.contains(r)),
                    None)
    return CoincidenceReport(star_space, coin_space, sep_star, sep_coin)
