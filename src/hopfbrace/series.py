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


def _fiber_constraints(targets_for, domain, n, identity):
    """Rows forcing, for each parameter value, every non-identity output
    fiber of a star row/column to sum to zero."""
    rows = []
    for h in range(n):
        fibers: dict[int, list[int]] = {}
        for g in domain:
            fibers.setdefault(targets_for(g, h), []).append(g)
        for x, fiber in fibers.items():
            if x != identity:
                rows.append(SparseVector({g: 1 for g in fiber}))
    return rows


def socle_annihilator(H: HopfBrace) -> SocleData:
    """Socle and annihilator, both as group-like carriers and as exact
    solution spaces of the defining linear systems.  The two computations
    are independent; the span of each carrier must sit inside the matching
    space, with any strict inclusion reported rather than asserted away."""
    if H.field.characteristic != 0:
        raise PrimeFieldError(
            "socle/annihilator computation is defined over the rationals only")
    base = H.base
    n = H.dim
    e = base.identity
    center = base.dot.center()
    in_center = set(center)
    st = base.star_table
    fixed = base.lambda_table == np.arange(n)        # lambda_g(b) == b
    soc_mask = base.dot.mask(center) & fixed.all(axis=1)
    ann_mask = soc_mask & fixed.all(axis=0)

    outside = [SparseVector({g: 1}) for g in range(n) if g not in in_center]
    soc_rows = outside + _fiber_constraints(
        lambda g, h: int(st[g, h]), center, n, e)
    ann_rows = soc_rows + _fiber_constraints(
        lambda g, h: int(st[h, g]), center, n, e)

    return SocleData(
        socle=Subbrace(H, np.flatnonzero(soc_mask)),
        annihilator=Subbrace(H, np.flatnonzero(ann_mask)),
        socle_space=common_nullspace(soc_rows, n),
        annihilator_space=common_nullspace(ann_rows, n),
    )


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
    if H.field.characteristic != 0:
        raise PrimeFieldError("coincidence diagnostics need rationals")
    base = H.base
    n = H.dim
    lam = base.lambda_table
    d, o = base.dot.table, base.circ.table

    star_rows = []
    for h in range(n):
        fibers: dict[int, list[int]] = {}
        for g in range(n):
            fibers.setdefault(int(lam[g, h]), []).append(g)
        for x, fiber in fibers.items():
            if x != h:
                star_rows.append(SparseVector({g: 1 for g in fiber}))
    star_space = common_nullspace(star_rows, n)

    coin_rows = []
    for h in range(n):
        for x in range(n):
            entries: dict[int, int] = {}
            for g in range(n):
                if int(d[g, h]) == x:
                    entries[g] = entries.get(g, 0) + 1
                if int(o[g, h]) == x:
                    entries[g] = entries.get(g, 0) - 1
            if any(entries.values()):
                coin_rows.append(SparseVector(entries))
    coin_space = common_nullspace(coin_rows, n)

    sep_star = next((r for r in star_space.rows if not coin_space.contains(r)),
                    None)
    sep_coin = next((r for r in coin_space.rows if not star_space.contains(r)),
                    None)
    return CoincidenceReport(star_space, coin_space, sep_star, sep_coin)
