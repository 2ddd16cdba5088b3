"""Machine verification of every identity and proposition in scope.

Each identity is written once, in ``REGISTRY``: a name, its variables and
an lhs and an rhs expression over the operations dot, circ, act, star, S,
T, one, eps, scale, mul, comul and pair.  The expressions are compiled at
import and evaluated with empty builtins in one of two namespaces, so
both check layers are derived from the same definition:

* the basis layer binds the variables to index grids and the operations
  to Cayley-table gathers (S and T to the inverse arrays, one to the
  identity, eps to 1, scale to its first argument) and compares the two
  sides on every basis tuple at once.  This is sound and complete for
  the multilinear identities, since the comultiplication is diagonal on
  the basis;
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
from functools import reduce
from itertools import product
from types import CodeType
from typing import NamedTuple

import numpy as np

from .errors import CrossCheckError
from .hopf import Element, HopfBrace, Tensor2, random_element
from .series import (gamma_series, hopf_center, left_series,
                     relative_commutator, right_series, socle_annihilator,
                     star_closure_subbrace)
from .subobjects import generated_subbrace

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
    suite: str
    label: str
    basis_checks: int = 0
    random_checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, other: "CheckReport") -> None:
        self.basis_checks += other.basis_checks
        self.random_checks += other.random_checks
        self.violations.extend(other.violations)


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
    f = H.field

    def pair(x, y):
        return Tensor2({(g, h): f.mul(cg, ch) for g, cg in x.coeffs.items()
                        for h, ch in y.coeffs.items()}, f, _clean=True)

    return {"__builtins__": {},
            "dot": H.dot, "circ": H.circ, "act": H.act, "star": H.star,
            "S": H.antipode_dot, "T": H.antipode_circ, "one": H.one,
            "eps": H.counit, "scale": lambda x, c: x.scale(c), "mul": f.mul,
            "comul": H.comultiply, "pair": pair}


def _evaluate(side: Side, ops: dict, H: HopfBrace, args: dict):
    """One side on elements.  Each repeated variable is expanded over its
    support, with the side evaluated on basis legs and summed back."""
    ns = {**ops, **args}
    if not side.repeated:
        return eval(side.code, ns)
    f = H.field
    add, mul, zero = f.add, f.mul, f.zero
    out, kind = {}, Element
    for legs in product(*(args[v].coeffs.items() for v in side.repeated)):
        for v, (g, _) in zip(side.repeated, legs):
            ns[v] = H.basis(g)
        coeff = reduce(mul, (c for _, c in legs))
        value = eval(side.code, ns)
        kind = type(value)
        terms = value.entries if kind is Tensor2 else value.coeffs
        for key, c in terms.items():
            c = mul(coeff, c)
            out[key] = add(out[key], c) if key in out else c
    return kind({k: c for k, c in out.items() if c != zero}, f, _clean=True)


# ------------------------------------------------------------ check driver

def _index_grids(n, arity):
    return [np.arange(n).reshape([n if i == pos else 1 for i in range(arity)])
            for pos in range(arity)]


def _check_identity(H: HopfBrace, ident: Identity, rng, samples: int,
                    report: CheckReport) -> None:
    n = H.dim
    if ident.basis:
        ns = {**_basis_ops(H.base),
              **dict(zip(ident.variables, _index_grids(n, ident.arity)))}
        full = (n,) * ident.arity
        lhs = np.broadcast_to(eval(ident.lhs.code, ns), full)
        rhs = np.broadcast_to(eval(ident.rhs.code, ns), full)
        report.basis_checks += lhs.size
        mism = lhs != rhs
        if mism.any():
            witness = tuple(int(v) for v in np.argwhere(mism)[0])
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


def _rng(seed):
    return random.Random(DEFAULT_SEED if seed is None else seed)


def _run_suite(H: HopfBrace, suite: str, samples: int, seed: int | None,
               label: str) -> CheckReport:
    report = CheckReport(suite, label or repr(H))
    rng = _rng(seed)
    for ident in REGISTRY.values():
        if ident.suite == suite:
            _check_identity(H, ident, rng, samples, report)
    return report


def verify_hopf_brace_axiom(H: HopfBrace, samples: int = DEFAULT_SAMPLES,
                            seed: int | None = None,
                            label: str = "") -> CheckReport:
    """The two-products compatibility law, on all basis triples and on
    random rational combinations."""
    return _run_suite(H, "axioms", samples, seed, label)


def verify_star_lemma(H: HopfBrace, clause: int,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int | None = None, label: str = "") -> CheckReport:
    """One clause (1..4) of the star-product lemma."""
    if clause not in (1, 2, 3, 4):
        raise ValueError("clause must be 1, 2, 3 or 4")
    report = CheckReport("lemma", label or repr(H))
    _check_identity(H, REGISTRY[f"star-lemma-{int(clause)}"], _rng(seed),
                    samples, report)
    return report


def verify_structure_identities(H: HopfBrace, samples: int = DEFAULT_SAMPLES,
                                seed: int | None = None,
                                label: str = "") -> CheckReport:
    """The derived structural equalities: both products through the
    action, both antipodes through the action, module-algebra laws and
    the coalgebra compatibility of action and star product."""
    return _run_suite(H, "structure", samples, seed, label)


# ------------------------------------------------------ proposition checks

def _prop(report, name, ok, witness=None):
    report.basis_checks += 1
    if not ok:
        report.violations.append(Violation(name, "proposition", witness))


def verify_propositions(H: HopfBrace, max_n: int = 10,
                        label: str = "") -> CheckReport:
    """Every proved structural statement, checked on one brace: series
    normality/strongness, descending chains, the gamma/Huq equality, the
    normality and inclusion facts for socle and annihilator, and the
    relative-commutator facts."""
    report = CheckReport("propositions", label or repr(H))
    base = H.base

    left = left_series(H, max_n)
    for k, term in enumerate(left.terms):
        _prop(report, f"left-term-{k + 1}-strong", term.is_strong(),
              term.carrier)

    right = right_series(H, max_n)
    for k, term in enumerate(right.terms):
        direct, via = term.is_normal(), term.is_normal_via_star()
        _prop(report, f"right-term-{k + 1}-normal", direct, term.carrier)
        _prop(report, f"right-term-{k + 1}-normality-agreement",
              direct == via, term.carrier)
        if k:
            _prop(report, f"right-chain-{k + 1}-descending",
                  right.terms[k - 1].contains(term), term.carrier)

    try:
        gamma = gamma_series(H, max_n)
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
    _prop(report, "hopf-center-commutes",
          all(base.dot.mul(g, x) == base.dot.mul(x, g)
              for g in hz.carrier for x in range(H.dim)), hz.carrier)

    if H.field.characteristic == 0:
        soc = socle_annihilator(H)
        _prop(report, "socle-normal", soc.socle.is_normal(),
              soc.socle.carrier)
        _prop(report, "annihilator-normal", soc.annihilator.is_normal(),
              soc.annihilator.carrier)
        _prop(report, "annihilator-inside-socle",
              soc.socle.contains(soc.annihilator))
        _prop(report, "socle-span-inside-space",
              soc.socle_space.contains_space(soc.socle_span))
        _prop(report, "annihilator-span-inside-space",
              soc.annihilator_space.contains_space(soc.annihilator_span))
        _prop(report, "antipodes-agree-on-socle",
              all(base.dot.inv(g) == base.circ.inverses[g]
                  for g in soc.socle.carrier), soc.socle.carrier)
        _prop(report, "socle-circ-closed",
              all(base.circ.mul(g, h) in set(soc.socle.carrier)
                  for g in soc.socle.carrier for h in soc.socle.carrier))
        e = base.identity
        _prop(report, "annihilator-star-absorbs-products",
              all(base.star_set(a, base.dot.mul(g, h)) == e
                  for g in soc.annihilator.carrier
                  for h in soc.annihilator.carrier
                  for a in range(H.dim)))

    for k, term in enumerate(right.terms):
        rel = relative_commutator(term, H)
        _prop(report, f"relative-commutator-{k + 1}-normal",
              rel.is_normal(), rel.carrier)
        _prop(report, f"relative-commutator-{k + 1}-inside-argument",
              term.contains(rel), rel.carrier)

    star_sub = star_closure_subbrace(H)
    _prop(report, "star-closure-normal", star_sub.is_normal(),
          star_sub.carrier)
    whole = generated_subbrace(H, range(H.dim))
    _prop(report, "star-closure-equals-relative-commutator",
          relative_commutator(whole, H).carrier == star_sub.carrier)
    _prop(report, "star-closure-equals-second-right-term",
          len(right.terms) < 2
          or right.terms[1].carrier == star_sub.carrier)
    _prop(report, "left-and-right-second-terms-agree",
          len(left.terms) < 2 or len(right.terms) < 2
          or left.terms[1].carrier == right.terms[1].carrier)
    return report


SUITES = ("axioms", "lemma", "structure", "propositions")


def verify_suite(H: HopfBrace, suite: str, samples: int = DEFAULT_SAMPLES,
                 seed: int | None = None, label: str = "",
                 max_n: int = 10) -> CheckReport:
    if suite == "axioms":
        return verify_hopf_brace_axiom(H, samples, seed, label)
    if suite == "lemma":
        report = CheckReport("lemma", label or repr(H))
        for clause in (1, 2, 3, 4):
            report.extend(verify_star_lemma(H, clause, samples, seed, label))
        return report
    if suite == "structure":
        return verify_structure_identities(H, samples, seed, label)
    if suite == "propositions":
        return verify_propositions(H, max_n, label)
    raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
