"""Central series, commutators, socle/annihilator and abelianisations.

Series terms are generated from group-like generator images only, which
is sound here because every Hopf subalgebra of a group algebra in
characteristic zero is a subgroup algebra.  The gamma series carries an
enforced per-step cross-check against the Huq commutator, whose
generator families, like the relative commutator's, are read on the
generating sets (the rule of ``skewbrace``), while the gamma step sweeps
the whole group.  The abelianisations are quotients by generated
subbraces; ``quotient`` checks, rather than assumes, that these are
normal.  Every series term, commutator, socle, annihilator and center
enters ``Subbrace`` as a carrier mask: the dot group's closures and
center return masks.  Every linear system's rows, and the coincidence
orbits, come from one grouping, ``_fiber_rows``, with no call to numpy's
``unique``.  A series ends on a trivial term or a repeat: each step is
monotone and T_2 lies in T_1 = H, so T_(k+1) lies in T_k (by induction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CrossCheckError
from .hopf import Element, HopfBrace
from .linalg import Subspace, common_nullspace, span_of_indices
from .skewbrace import _nonzero
from .subobjects import (HopfMorphism, Subbrace, _require_normal,
                         generated_subbrace, quotient, whole_subbrace)


@dataclass
class SeriesResult:
    terms: list[Subbrace]
    generators: list[tuple[int, ...]]   # generators[i] generated terms[i]
    stabilized: bool
    nil_class: int | None

    def sizes(self) -> list[int]:
        return [t.dim for t in self.terms]


def _run_series(H: HopfBrace, step) -> SeriesResult:
    terms = [whole_subbrace(H)]
    gens: list[tuple[int, ...]] = [()]
    while not terms[-1].is_trivial():
        new_gens = _nonzero(step(terms[-1].elements))
        nxt = generated_subbrace(H, new_gens)
        terms.append(nxt)
        gens.append(tuple(new_gens.tolist()))
        if nxt.carrier == terms[-2].carrier:
            break
    stabilized = len(terms) == 1 or not terms[-1].is_trivial()
    nil_class = len(terms) if terms[-1].is_trivial() else None
    return SeriesResult(terms, gens, stabilized, nil_class)


def left_series(H: HopfBrace) -> SeriesResult:
    """H, H*H, H*(H*H), ...; every term is a strong subbrace."""
    st, dot = H.base.star_table, H.base.dot
    return _run_series(H, lambda c: dot._mask(st[:, c]))


def right_series(H: HopfBrace) -> SeriesResult:
    """H, H*H, (H*H)*H, ...; every term is a normal subbrace."""
    st, dot = H.base.star_table, H.base.dot
    return _run_series(H, lambda c: dot._mask(st[c]))


def gamma_series(H: HopfBrace) -> SeriesResult:
    """Lower central series from star values and dot-commutators; each
    step is cross-checked against the Huq commutator with the whole brace."""
    st, dot = H.base.star_table, H.base.dot

    def step(c):            # st[i, h], st[h, i] and [h, i] for i in c
        comm = dot.table[dot.conj_table[:, c], dot.inverses[c]]
        return dot._mask(st[c]) | dot._mask(st[:, c]) | dot._mask(comm)

    result = _run_series(H, step)
    for n in range(1, len(result.terms)):
        huq = huq_commutator(result.terms[n - 1], H)
        if huq.carrier != result.terms[n].carrier:
            raise CrossCheckError(
                f"gamma term {n + 1} differs from the Huq commutator: "
                f"{result.terms[n].carrier} vs {huq.carrier}")
    return result


def _commutators(group, c, s) -> np.ndarray:
    """[i, x] = i.x.i^-1.x^-1 in ``group``, for i in c and x in s."""
    return group.table[group.conj_table[c[:, None], s], group.inverses[s]]


def relative_commutator(I: Subbrace, H: HopfBrace) -> Subbrace:
    """Commutator relative to the plain-Hopf-algebra adjunction: the
    subgroup generated by i*h and all dot-conjugates of h*i, computed as
    the dot-normal closure N of I*S_dot and S_circ*I, for the generating
    sets S of ``FiniteGroup.generators``.  Every h is a positive S-word.
    N holds I*H: by star-lemma-1, i*(x.h) = (i*x).x.(i*h).x^-1, so
    i*(s.h) lies in N once i*h does.  N holds H*I: lambda_{a o b} =
    lambda_a lambda_b gives (a o b)*c = (a*(b*c)).(b*c).(a*c), with b*c
    in the ideal I, so (s o h)*i lies in N once h*i does.  So N is the
    normal closure of I*H and H*I, which equals the generated subgroup:
    star-lemma-1 also gives x.(i*h).x^-1 = (i*x)^-1.(i*(x.h)), so <I*H>
    is dot-normal, hence so is the generated subgroup, which then
    contains the normal closure.  ``tests/oracle.py`` keeps the
    definition, over every h and with the conjugates."""
    _require_normal(I, H)
    base, c = H.base, I.elements
    st, dot = base.star_table, base.dot
    gens = (dot._mask(st[c[:, None], dot.generators])
            | dot._mask(st[base.circ.generators[:, None], c]))
    return Subbrace._of_mask(H, dot.normal_closure(_nonzero(gens)))


def huq_commutator(I: Subbrace, H: HopfBrace) -> Subbrace:
    """Huq commutator [I, H]: the dot-normal closure of [i, h] =
    i.h.i^-1.h^-1, its circ analogue [i, h]_o and i*h, for i in I and h
    in H, computed as the dot-normal closure N of [I, S_dot], [I, S_circ]_o
    and I*S_dot.  N holds I*H, as in ``relative_commutator``, and [I, H],
    as [i, x.h] = [i, x].x[i, h]x^-1.  N lies in the ideal I.  For m in N,
    m o x = m.(m*x).x with m*x in N, so N o x = N.x.  For s in S_circ and
    i in I, i o s = i.(i*s).s lies in N.i.s = N.s.i, and in N o (s o i) =
    N.(s o i) = N.s.(s*i).i, as [i, s]_o does in N; so N.s.(s*i) = N.s
    and s*i lies in N.  So N holds S_circ*I, and H*I by the induction of
    ``relative_commutator``.  Then i o h = i.(i*h).h and h o i =
    h.(h*i).i lie in N.i.h, as h.i = [h, i].i.h and [h, i] = [i, h]^-1;
    N is a circ-subgroup (N o N = N.N), so [i, h]_o = (i o h) o
    (h o i)^-1 lies in N.  ``tests/oracle.py`` keeps the definition over
    every h."""
    _require_normal(I, H)
    base, c = H.base, I.elements
    dot, circ = base.dot, base.circ
    gens = (dot._mask(_commutators(dot, c, dot.generators))
            | dot._mask(_commutators(circ, c, circ.generators))
            | dot._mask(base.star_table[c[:, None], dot.generators]))
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


def _fiber_rows(sub, skip) -> list[Element]:
    """For each column h, one 0/1 row per fiber of g -> sub[g, h] except
    the fiber of value ``skip`` (a scalar, or one per column), g given by
    its row in ``sub``; distinct and sorted, cut from one stable key sort."""
    pos, h = (sub != skip).nonzero()
    if not pos.size:
        return []
    keys = sub[pos, h] * sub.shape[1] + h
    order = keys.argsort(kind="stable")
    keys, pos = keys[order], pos[order].tolist()
    cuts = [0, *((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist(), len(pos)]
    return [Element._canonical(dict.fromkeys(f, 1), 1) for f in sorted(
        {tuple(pos[a:b]) for a, b in zip(cuts, cuts[1:])})]


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
    central}, so they are solved in the sorted center's coordinates and
    their kernel rows written in H's labels; that embedding keeps index
    order, so the bases stay canonical.  The carriers read lambda on
    generators only: lambda_z is a dot-automorphism, so it is the identity
    once it fixes S_dot, and the a with lambda_a(z) = z form a
    circ-subgroup (lambda is a homomorphism from (G, o)), which is the
    group once it holds S_circ."""
    base, n = H.base, H.dim
    central = base.dot.center()
    center = _nonzero(central).tolist()
    st, lam = base.star_table, base.lambda_table
    s_dot, s_circ = base.dot.generators, base.circ.generators
    soc_mask = central & (lam[:, s_dot] == s_dot).all(axis=1)
    ann_mask = soc_mask & (lam[s_circ] == np.arange(n)).all(axis=0)

    soc_rows = _fiber_rows(st[center], base.identity)
    ann_rows = soc_rows + _fiber_rows(st[:, center].T, base.identity)
    return _check_group_likes(SocleData(
        socle=Subbrace._of_mask(H, soc_mask),
        annihilator=Subbrace._of_mask(H, ann_mask),
        socle_space=common_nullspace(soc_rows, len(center), center, n),
        annihilator_space=common_nullspace(ann_rows, len(center), center, n),
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
    left: SeriesResult
    right: SeriesResult
    gamma: SeriesResult
    adjunction_class: int | None   # least n with [H^(n), H] trivial


def nilpotency_report(H: HopfBrace) -> NilpotencyReport:
    left = left_series(H)
    right = right_series(H)
    gamma = gamma_series(H)
    adjunction_class = None
    for n, term in enumerate(right.terms, start=1):
        if relative_commutator(term, H).is_trivial():
            adjunction_class = n
            break
    return NilpotencyReport(left, right, gamma, adjunction_class)


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
    are the space's canonical reduced echelon basis: the fiber rows of
    g -> label[g], the least element of g's orbit.  Equal canonical bases
    mean equal spaces, with no separators to search for."""
    base, n = H.base, H.dim
    cols = np.arange(n)
    star_space = common_nullspace(_fiber_rows(base.lambda_table, cols), n)

    # moves[g, h] = g' with g' o h = g.h (argsort inverts each column of
    # the circ table); column e is the identity map, so each min-label
    # step can only lower the labels
    moves = np.argsort(base.circ.table, axis=0)[base.dot.table, cols]
    label = cols
    while (label != (nxt := label[moves].min(axis=1))).any():
        label = nxt
    coin_space = Subspace._canonical(n, tuple(_fiber_rows(label[:, None], -1)))

    differ = star_space != coin_space
    sep_star = next((r for r in star_space.rows
                     if differ and not coin_space.contains(r)), None)
    sep_coin = next((r for r in coin_space.rows
                     if differ and not star_space.contains(r)), None)
    return CoincidenceReport(star_space, coin_space, sep_star, sep_coin)
