"""The traced pass: spans around the calls into each hopfbrace module.

The spans are installed from outside the package.  A module-level
function is replaced in every hopfbrace module that holds a reference to
it (for example both ``hopfbrace.linalg.common_nullspace`` and
``hopfbrace.series.common_nullspace``), a method on its class.  A span's
self time is its duration minus the durations of the wrapped calls it
makes, kept with a span stack.  Counts are taken on calls into a group
from outside it, so a group's internal recursion is not double-counted.

The per-element methods (``FiniteGroup.mul/inv/conj/commutator`` and the
``Element`` and ``SparseVector`` operators) are never wrapped: they run
millions of times per pass and the wrappers would dominate the timing.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span group -> (module, wrapped names); "Class.method" wraps a method.
SPANS = {
    "catalog.load": ("hopfbrace.catalog",
                     ("load_brace", "load_map", "resolve")),
    "skewbrace.validate": ("hopfbrace.skewbrace",
                           ("FiniteGroup.__init__", "SkewBrace.__init__",
                            "BraceMap.__init__")),
    "skewbrace.closure": ("hopfbrace.skewbrace",
                          ("FiniteGroup.subgroup_generated",
                           "FiniteGroup.normal_closure")),
    "skewbrace.subgroup_check": ("hopfbrace.skewbrace",
                                 ("FiniteGroup.is_subgroup",
                                  "FiniteGroup.is_normal")),
    "subobjects.subbrace": ("hopfbrace.subobjects", ("Subbrace.__init__",)),
    "subobjects.predicate": ("hopfbrace.subobjects",
                             ("Subbrace.is_strong", "Subbrace.is_normal",
                              "Subbrace.is_normal_via_star")),
    "subobjects.quotient": ("hopfbrace.subobjects", ("quotient",)),
    "series.series": ("hopfbrace.series",
                      ("left_series", "right_series", "gamma_series")),
    "series.commutator": ("hopfbrace.series",
                          ("relative_commutator", "huq_commutator")),
    "series.abelianization": ("hopfbrace.series",
                              ("star_abelianization", "full_abelianization")),
    "series.socle": ("hopfbrace.series", ("socle_annihilator",)),
    "series.coincidence": ("hopfbrace.series", ("coincidence_report",)),
    "linalg.solve": ("hopfbrace.linalg",
                     ("common_nullspace", "Subspace.row_space")),
    "linalg.contains": ("hopfbrace.linalg",
                        ("Subspace.contains", "Subspace.contains_space")),
    "hopf.ops": ("hopfbrace.hopf",
                 ("HopfBrace.dot", "HopfBrace.circ", "HopfBrace.act",
                  "HopfBrace.star", "HopfBrace.antipode_dot",
                  "HopfBrace.antipode_circ", "HopfBrace.comultiply",
                  "HopfBrace.counit")),
    "verify.suite": ("hopfbrace.verify",
                     ("verify_hopf_brace_axiom", "verify_star_lemma",
                      "verify_structure_identities", "verify_propositions",
                      "verify_suite")),
    "extensions.central": ("hopfbrace.extensions",
                           ("check_central_hopfcoc", "check_central_huq",
                            "analyze_extension")),
    "cli.report": ("hopfbrace.cli",
                   ("cmd_validate", "cmd_series", "cmd_invariants",
                    "cmd_check_central", "cmd_verify")),
}

# count metric -> span group whose outside calls it counts
CALL_COUNTS = {
    "catalog.loads": "catalog.load",
    "skewbrace.validations": "skewbrace.validate",
    "skewbrace.closures": "skewbrace.closure",
    "subobjects.subbraces": "subobjects.subbrace",
    "series.commutators": "series.commutator",
    "linalg.solves": "linalg.solve",
    "hopf.ops": "hopf.ops",
}


def _closure_counts(counts, name, args, result):
    gens = args[1]
    if hasattr(gens, "__len__"):
        counts["skewbrace.closure_gens"] += len(gens)


def _solve_counts(counts, name, args, result):
    # common_nullspace(rows, ambient) returns the null space;
    # Subspace.row_space(cls, rows, ambient) returns the row space.
    rows, ambient = (args[0], args[1]) if name == "common_nullspace" \
        else (args[1], args[2])
    if hasattr(rows, "__len__"):
        counts["linalg.rows_in"] += len(rows)
    rank = ambient - result.dim if name == "common_nullspace" else result.dim
    counts["linalg.rank_out"] += rank


def _suite_counts(counts, name, args, result):
    counts["verify.basis_checks"] += result.basis_checks
    counts["verify.random_checks"] += result.random_checks


HOOKS = {"skewbrace.closure": _closure_counts,
         "linalg.solve": _solve_counts,
         "verify.suite": _suite_counts}


class Tracer:
    """Self times and counts per span group, for the calls made while
    ``installed()`` is active."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[list] = []

    def _wrap(self, group, fn):
        stack, hook, name = self._stack, HOOKS.get(group), fn.__name__

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outside = not stack or stack[-1][0] != group
            if outside:
                self.calls[group] += 1
            frame = [group, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if outside:
                    self.raised[group] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_s[group] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if outside and hook is not None:
                hook(self.counts, name, args, result)
            return result

        return span

    @contextmanager
    def installed(self):
        undo = []
        try:
            for group, (modname, names) in SPANS.items():
                module = importlib.import_module(modname)
                for name in names:
                    if "." in name:
                        cls_name, attr = name.split(".")
                        cls = getattr(module, cls_name)
                        raw = cls.__dict__[attr]
                        if isinstance(raw, classmethod):
                            new = classmethod(self._wrap(group, raw.__func__))
                        else:
                            new = self._wrap(group, raw)
                        setattr(cls, attr, new)
                        undo.append((cls, attr, raw))
                    else:
                        orig = getattr(module, name)
                        new = self._wrap(group, orig)
                        for holder in _package_modules():
                            for key, value in list(vars(holder).items()):
                                if value is orig:
                                    setattr(holder, key, new)
                                    undo.append((holder, key, orig))
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out = {f"{group}_s": (self.self_s[group], "s") for group in SPANS}
        for metric, group in CALL_COUNTS.items():
            out[metric] = (self.calls[group], "count")
        out["skewbrace.rejects"] = (self.raised["skewbrace.validate"], "count")
        for metric in ("skewbrace.closure_gens", "linalg.rows_in",
                       "linalg.rank_out", "verify.basis_checks",
                       "verify.random_checks"):
            out[metric] = (self.counts[metric], "count")
        rows = self.counts["linalg.rows_in"]
        out["linalg.rank_ratio"] = (
            self.counts["linalg.rank_out"] / rows if rows else 0.0, "1")
        return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "hopfbrace" or name.startswith("hopfbrace."))]
