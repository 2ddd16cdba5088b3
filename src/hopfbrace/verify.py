"""Machine verification of every identity and proposition in scope.

Each identity is written once, in ``REGISTRY``: a name, its variables and
an lhs and an rhs expression over the operations dot, circ, act, star, S,
T, one, eps, scale, mul, comul and pair.  The expressions are compiled at
import and evaluated with empty builtins in one of two namespaces, so
both check layers are derived from the same definition:

* the basis layer binds the variables to index grids and the operations
  to Cayley-table gathers (S and T to the inverse arrays, one to the
  identity, eps to 1, scale to its first argument) and compares the two
  sides on every basis tuple.  The tuples are swept in blocks of values
  of the first variable, each block a fixed number of entries (all of
  them at small orders, a few n^2 slices of a three-variable identity at
  large ones), up to the first block with a failure, so no sweep holds a
  whole n^3 array at large orders.  The witness is the first failing
  tuple in variable order, from ``skewbrace._first_bad_tuple``.  This
  is sound and complete for the multilinear identities, since the
  comultiplication is diagonal on the basis;
* the random layer binds the variables to random sparse rational
  combinations and the operations to the ``HopfBrace`` arithmetic, as a
  regression check on the linear-extension code itself.  A variable
  that occurs more than once in a side stands for its Sweedler legs, so
  that side is expanded over the variable's support: each leg of a
  group-like basis element is the element itself.  A variable that
  occurs once is passed as the full element.

The coalgebra compatibilities of act and star collapse to tautologies on
group-likes; the registry marks them element-only, and they run in the
random layer alone.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import product
from math import prod
from operator import mul
from types import CodeType
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckError
from .hopf import Element, HopfBrace, Tensor2, random_element
from .series import (gamma_series, hopf_center, left_series,
                     relative_commutator, right_series, socle_annihilator,
                     star_closure_subbrace)
from .skewbrace import _first_bad_tuple, _integer
from .subobjects import whole_subbrace

DEFAULT_SEED = 7349
DEFAULT_SAMPLES = 32


@dataclass
class Violation:
    identity: str
    layer: str                     # "basis" | "random" | "proposition"
    witness: object

    def __str__(self):
        return f"{self.identity} [{self.layer}] witness={self.witness}"


@dataclass
class CheckReport:
    basis_checks: int = 0
    random_checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ------------------------------------------------------- identity registry

class Side(NamedTuple):
    """One side of an identity, compiled once."""
    code: CodeType
    repeated: tuple[str, ...]      # variables expanded over their support


def _side(source: str, variables: tuple[str, ...]) -> Side:
    names = re.findall(r"\w+", source)     # operation and variable names
    return Side(compile(source, source, "eval"),
                tuple(v for v in variables if names.count(v) > 1))


class Identity(NamedTuple):
    suite: str
    name: str
    variables: tuple[str, ...]
    lhs: Side
    rhs: Side
    basis: bool            # False: a tautology on group-likes, element-only

    @property
    def arity(self) -> int:
        return len(self.variables)


def _identity(suite, name, variables, lhs, rhs, basis=True) -> Identity:
    variables = tuple(variables.split())
    return Identity(suite, name, variables, _side(lhs, variables),
                    _side(rhs, variables), basis)


REGISTRY = {ident.name: ident for ident in (
    _identity("axioms", "compatibility", "a b c", "circ(a, dot(b, c))",
              "dot(dot(circ(a, b), S(a)), circ(a, c))"),
    _identity("lemma", "star-lemma-1", "a x y", "star(a, dot(x, y))",
              "dot(dot(dot(star(a, x), x), star(a, y)), S(x))"),
    _identity("lemma", "star-lemma-2", "x y a", "star(circ(x, y), a)",
              "dot(dot(star(x, star(y, a)), star(y, a)), star(x, a))"),
    _identity("lemma", "star-lemma-3", "a x y", "act(a, star(x, y))",
              "star(circ(circ(a, x), T(a)), act(a, y))"),
    _identity("lemma", "star-lemma-4", "a x", "circ(circ(a, x), T(a))",
              "dot(dot(a, act(a, dot(x, star(x, T(a))))), S(a))"),
    _identity("structure", "circ-via-action", "a b", "circ(a, b)",
              "dot(a, act(a, b))"),
    _identity("structure", "dot-via-action", "a b", "dot(a, b)",
              "circ(a, act(T(a), b))"),
    _identity("structure", "antipode-via-action", "a", "S(a)",
              "act(a, T(a))"),
    _identity("structure", "t-via-action", "b", "T(b)", "S(act(T(b), b))"),
    _identity("structure", "action-fixes-unit", "a", "act(a, one())",
              "scale(one(), eps(a))"),
    _identity("structure", "action-multiplicative", "a b c",
              "act(a, dot(b, c))", "dot(act(a, b), act(a, c))"),
    _identity("structure", "action-module", "a b c", "act(circ(a, b), c)",
              "act(a, act(b, c))"),
    _identity("structure", "action-antipode-compat", "a b", "S(act(a, b))",
              "act(a, S(b))"),
    _identity("structure", "action-comultiplicative", "a b",
              "comul(act(a, b))", "pair(act(a, b), act(a, b))", basis=False),
    _identity("structure", "action-counit", "a b", "eps(act(a, b))",
              "mul(eps(a), eps(b))", basis=False),
    _identity("structure", "star-comultiplicative", "a b",
              "comul(star(a, b))", "pair(star(a, b), star(a, b))",
              basis=False),
    _identity("structure", "star-counit", "a b", "eps(star(a, b))",
              "mul(eps(a), eps(b))", basis=False),
    _identity("structure", "star-via-action", "a b", "star(a, b)",
              "dot(act(a, b), S(b))"),
    _identity("structure", "star-via-antipodes", "a b", "star(a, b)",
              "dot(dot(S(a), circ(a, b)), S(b))"),
)}


def _basis_ops(base) -> dict:
    """The operations on index arrays: Cayley-table gathers."""
    d, o = base.dot.table, base.circ.table
    lam, st = base.lambda_table, base.star_table
    e = base.identity
    return {"__builtins__": {},
            "dot": lambda x, y: d[x, y], "circ": lambda x, y: o[x, y],
            "act": lambda x, y: lam[x, y], "star": lambda x, y: st[x, y],
            "S": base.dot.inverses.__getitem__,
            "T": base.circ.inverses.__getitem__,
            "one": lambda: e, "eps": lambda x: 1, "scale": lambda x, c: x}


def _element_ops(H: HopfBrace) -> dict:
    """The operations on elements: the HopfBrace arithmetic."""
    def pair(x, y):
        return Tensor2._make({(g, h): a * b for g, a in x.nums.items()
                              for h, b in y.nums.items()}, x.den * y.den)

    return {"__builtins__": {},
            "dot": H.dot, "circ": H.circ, "act": H.act, "star": H.star,
            "S": H.antipode_dot, "T": H.antipode_circ, "one": H.one,
            "eps": H.counit, "scale": lambda x, c: x.scale(c),
            "mul": mul,
            "comul": H.comultiply, "pair": pair}


def _evaluate(side: Side, ops: dict, H: HopfBrace, args: dict):
    """One side on elements.  Each repeated variable is expanded over its
    support, with the side evaluated on basis legs and summed back in
    integers over ``den``, the product of the once-used variables'
    denominators.  Each leg's value has a denominator dividing ``den``:
    the legs are basis elements, and each operation's denominator divides
    its operands' product (``scale`` by ``eps(x)``: ``x.den``)."""
    ns = {**ops, **args}
    if not side.repeated:
        return eval(side.code, ns)
    out, kind = {}, Element
    den = prod(x.den for v, x in args.items() if v not in side.repeated)
    for legs in product(*(args[v].nums.items() for v in side.repeated)):
        for v, (g, _) in zip(side.repeated, legs):
            ns[v] = H.basis(g)
        value = eval(side.code, ns)
        kind = type(value)
        coeff = prod(n for _, n in legs) * (den // value.den)
        for key, n in value.nums.items():
            out[key] = out.get(key, 0) + coeff * n
    return kind._make(out, den * prod(args[v].den for v in side.repeated))


# ------------------------------------------------------------ check driver

def _index_grids(n, arity):
    return [np.arange(n).reshape([n if i == pos else 1 for i in range(arity)])
            for pos in range(arity)]


def _basis_witness(base, ident: Identity) -> tuple[int, ...] | None:
    """The first basis tuple on which the two sides differ, or None."""
    n, arity = base.order, ident.arity
    first, *grids = _index_grids(n, arity)
    ns = {**_basis_ops(base), **dict(zip(ident.variables[1:], grids))}

    def rows(lo, hi):           # the tuples whose first entry is in lo:hi
        ns[ident.variables[0]] = first[lo:hi]
        return np.broadcast_to(eval(ident.lhs.code, ns)
                               != eval(ident.rhs.code, ns),
                               (hi - lo,) + (n,) * (arity - 1))

    return _first_bad_tuple(rows, n, n ** (arity - 1))


def _check_identity(H: HopfBrace, ident: Identity, rng, samples: int,
                    report: CheckReport) -> None:
    if ident.basis:
        report.basis_checks += H.dim ** ident.arity
        witness = _basis_witness(H.base, ident)
        if witness is not None:
            report.violations.append(
                Violation(ident.name, "basis", witness))
    ops = _element_ops(H)
    for _ in range(samples):
        args = [random_element(H, rng) for _ in range(ident.arity)]
        bound = dict(zip(ident.variables, args))
        report.random_checks += 1
        if (_evaluate(ident.lhs, ops, H, bound)
                != _evaluate(ident.rhs, ops, H, bound)):
            report.violations.append(
                Violation(ident.name, "random",
                          tuple(repr(a) for a in args)))


def _run_suite(H: HopfBrace, name: str, samples: int,
               seed: int | None) -> CheckReport:
    """Once ``samples`` and ``seed`` are typed, the propositions, or the
    identities of one suite or the one of this name, in registry order.
    Each lemma clause draws from a fresh ``random.Random(seed)``, as
    ``verify_star_lemma(H, k)`` does; the other suites share one RNG."""
    if _integer(samples) < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    seed = DEFAULT_SEED if seed is None else _integer(seed)
    if name == "propositions":
        return verify_propositions(H)
    report, rng = CheckReport(), random.Random(seed)
    for ident in REGISTRY.values():
        if name in (ident.suite, ident.name):
            if ident.suite == "lemma":
                rng = random.Random(seed)
            _check_identity(H, ident, rng, samples, report)
    return report


def verify_hopf_brace_axiom(H: HopfBrace, samples: int = DEFAULT_SAMPLES,
                            seed: int | None = None) -> CheckReport:
    """The two-products compatibility law, on all basis triples and on
    random rational combinations."""
    return _run_suite(H, "axioms", samples, seed)


def verify_star_lemma(H: HopfBrace, clause: int,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int | None = None) -> CheckReport:
    """One clause of the star-product lemma, ``star-lemma-<clause>``."""
    if (name := f"star-lemma-{_integer(clause)}") not in REGISTRY:
        raise ValueError(f"no identity {name!r} in REGISTRY")
    return _run_suite(H, name, samples, seed)


def verify_structure_identities(H: HopfBrace, samples: int = DEFAULT_SAMPLES,
                                seed: int | None = None) -> CheckReport:
    """The derived structural equalities: both products through the
    action, both antipodes through the action, module-algebra laws and
    the coalgebra compatibility of action and star product."""
    return _run_suite(H, "structure", samples, seed)


# ------------------------------------------------------ proposition checks

def _prop(report, name, ok, witness=None):
    report.basis_checks += 1
    if not ok:
        report.violations.append(Violation(name, "proposition", witness))


def verify_propositions(H: HopfBrace) -> CheckReport:
    """Every proved structural statement, checked on one brace: series
    normality/strongness, descending chains, the gamma/Huq equality, the
    normality and inclusion facts for socle and annihilator, and the
    relative-commutator facts."""
    report = CheckReport()
    base = H.base

    left = left_series(H)
    for k, term in enumerate(left.terms):
        _prop(report, f"left-term-{k + 1}-strong", term.is_strong(),
              term.carrier)

    right = right_series(H)
    for k, term in enumerate(right.terms):
        direct, via = term.is_normal(), term.is_normal_via_star()
        _prop(report, f"right-term-{k + 1}-normal", direct, term.carrier)
        _prop(report, f"right-term-{k + 1}-normality-agreement",
              direct == via, term.carrier)
        if k:
            _prop(report, f"right-chain-{k + 1}-descending",
                  right.terms[k - 1].contains(term), term.carrier)

    try:
        gamma = gamma_series(H)
    except CrossCheckError as exc:
        report.violations.append(Violation("gamma-huq-equality",
                                           "proposition", str(exc)))
        gamma = None
    if gamma is not None:
        for k, term in enumerate(gamma.terms):
            _prop(report, f"gamma-term-{k + 1}-normal", term.is_normal(),
                  term.carrier)
            if k:
                _prop(report, f"gamma-chain-{k + 1}-descending",
                      gamma.terms[k - 1].contains(term), term.carrier)

    hz = hopf_center(H)
    _prop(report, "hopf-center-strong", hz.is_strong(), hz.carrier)
    d, z = base.dot.table, hz.elements
    _prop(report, "hopf-center-commutes", (d[z] == d[:, z].T).all(),
          hz.carrier)

    soc = socle_annihilator(H)
    _prop(report, "socle-normal", soc.socle.is_normal(), soc.socle.carrier)
    _prop(report, "annihilator-normal", soc.annihilator.is_normal(),
          soc.annihilator.carrier)
    _prop(report, "annihilator-inside-socle",
          soc.socle.contains(soc.annihilator))
    _prop(report, "socle-span-inside-space",
          soc.socle_space.contains_space(soc.socle_span))
    _prop(report, "annihilator-span-inside-space",
          soc.annihilator_space.contains_space(soc.annihilator_span))
    s, a = soc.socle.elements, soc.annihilator.elements
    _prop(report, "antipodes-agree-on-socle",
          (base.dot.inverses[s] == base.circ.inverses[s]).all(),
          soc.socle.carrier)
    _prop(report, "socle-circ-closed", base.circ.is_subgroup(s))
    _prop(report, "annihilator-star-absorbs-products",
          (base.star_table[:, d[a[:, None], a]] == base.identity).all())

    for k, term in enumerate(right.terms):
        rel = relative_commutator(term, H)
        _prop(report, f"relative-commutator-{k + 1}-normal",
              rel.is_normal(), rel.carrier)
        _prop(report, f"relative-commutator-{k + 1}-inside-argument",
              term.contains(rel), rel.carrier)

    star_sub = star_closure_subbrace(H)
    _prop(report, "star-closure-normal", star_sub.is_normal(),
          star_sub.carrier)
    whole = whole_subbrace(H)
    _prop(report, "star-closure-equals-relative-commutator",
          relative_commutator(whole, H).carrier == star_sub.carrier)
    _prop(report, "star-closure-equals-second-right-term",
          len(right.terms) < 2
          or right.terms[1].carrier == star_sub.carrier)
    _prop(report, "left-and-right-second-terms-agree",
          len(left.terms) < 2 or len(right.terms) < 2
          or left.terms[1].carrier == right.terms[1].carrier)
    return report


SUITES = (*dict.fromkeys(i.suite for i in REGISTRY.values()), "propositions")


def verify_suite(H: HopfBrace, suite: str, samples: int = DEFAULT_SAMPLES,
                 seed: int | None = None) -> CheckReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    return _run_suite(H, suite, samples, seed)
