"""Command-line interface: validate, series, invariants, check-central,
verify.

Exit codes: 0 success, 1 verification failure, 2 input/parse error.
The --json form is deterministic and byte-identical for a fixed seed
(wall-clock timing is only ever printed on the human-readable path).
The argument parser is built on the first ``main`` call and reused for
the rest of the process, and each call loads each distinct input once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .catalog import (BraceDescriptor, builtin_catalog, load_map, resolve)
from .errors import BraceFileError, MorphismError, ValidationError
from .extensions import analyze_extension, centrality_consequences
from .hopf import HopfBrace
from .series import (coincidence_report, full_abelianization, hopf_center,
                     left_series, right_series, gamma_series,
                     socle_annihilator, star_abelianization)
from .subobjects import HopfMorphism
from .verify import DEFAULT_SAMPLES, DEFAULT_SEED, SUITES, verify_suite

SEED_ENV = "HOPFBRACE_SEED"


def _error(message) -> int:
    """Report a bad input on one stderr line; exit code 2."""
    print("error:", " ".join(str(message).splitlines()), file=sys.stderr)
    return 2


def _engine() -> dict:
    return {"name": "hopfbrace", "version": __version__}


def _brace_doc(desc: BraceDescriptor) -> dict:
    return {"name": desc.name, "order": desc.order,
            "construction": desc.construction}


def _emit(doc: dict, as_json: bool, lines: list[str], started: float) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")


def _carrier_str(carrier, names) -> str:
    idx = ", ".join(str(g) for g in carrier)
    if names:
        pretty = ", ".join(names[g] for g in carrier)
        return f"[{idx}]  ({pretty})"
    return f"[{idx}]"


def _vector_str(vec) -> str:
    bits = []
    for idx, val in vec.items():
        sign = "-" if val < 0 else "+"
        mag = abs(val)
        coeff = "" if mag == 1 else f"{mag}*"
        bits.append(f"{sign} {coeff}g{idx}")
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else out


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    started = time.perf_counter()
    desc, brace = resolve(args.input)
    doc = {"engine": _engine(), "command": "validate",
           "brace": _brace_doc(desc), "results": {"valid": True}}
    _emit(doc, args.json,
          [f"{desc.name}: valid skew brace of order {desc.order}"], started)
    return 0


def cmd_series(args) -> int:
    started = time.perf_counter()
    if args.max < 1:
        return _error(f"--max must be at least 1, got {args.max}")
    desc, brace = resolve(args.input)
    H = HopfBrace(brace)
    runner = {"left": left_series, "right": right_series,
              "gamma": gamma_series}[args.kind]
    result = runner(H, args.max)
    terms = []
    lines = [f"{desc.name}: {args.kind} series (max {args.max})"]
    for k, term in enumerate(result.terms):
        gens = sorted(result.generators[k])
        terms.append({"index": k + 1, "size": term.dim,
                      "carrier": list(term.carrier),
                      "generators": gens})
        lines.append(f"  term {k + 1}: size {term.dim}  carrier "
                     f"{_carrier_str(term.carrier, desc.element_names)}")
        if gens:
            lines.append(f"           generators {gens}")
    lines.append(f"  stabilized: {result.stabilized}   "
                 f"nil class: {result.nil_class}")
    doc = {"engine": _engine(), "command": "series",
           "brace": _brace_doc(desc),
           "results": {"kind": args.kind, "terms": terms,
                       "stabilized": result.stabilized,
                       "nil_class": result.nil_class}}
    _emit(doc, args.json, lines, started)
    return 0


def cmd_invariants(args) -> int:
    started = time.perf_counter()
    desc, brace = resolve(args.input)
    H = HopfBrace(brace)
    soc = socle_annihilator(H)
    hz = hopf_center(H)
    F, _ = star_abelianization(H)
    ab, _ = full_abelianization(H)
    coin = coincidence_report(H)
    names = desc.element_names
    results = {
        "socle_carrier": list(soc.socle.carrier),
        "annihilator_carrier": list(soc.annihilator.carrier),
        "socle_space_dim": soc.socle_space.dim,
        "annihilator_space_dim": soc.annihilator_space.dim,
        "socle_space_strict": soc.socle_strict,
        "annihilator_space_strict": soc.annihilator_strict,
        "hopf_center_carrier": list(hz.carrier),
        "dim_star_abelianization": F.dim,
        "dim_full_abelianization": ab.dim,
        "star_trivial_space_dim": coin.star_trivial_space.dim,
        "product_coincidence_space_dim": coin.coincidence_space.dim,
        "star_trivial_equals_coincidence": coin.equivalent,
    }
    lines = [
        f"{desc.name}: invariants",
        f"  socle      (Soc): {_carrier_str(soc.socle.carrier, names)}  "
        f"space dim {soc.socle_space.dim}"
        + ("  [strictly larger than the group-like span]"
           if soc.socle_strict else ""),
        f"  annihilator(Ann): {_carrier_str(soc.annihilator.carrier, names)}  "
        f"space dim {soc.annihilator_space.dim}"
        + ("  [strictly larger than the group-like span]"
           if soc.annihilator_strict else ""),
        f"  hopf center: {_carrier_str(hz.carrier, names)}",
        f"  dim of star-abelianization (products fused): {F.dim}",
        f"  dim of full abelianization: {ab.dim}",
        f"  star-trivial space dim {coin.star_trivial_space.dim}; "
        f"product-coincidence space dim {coin.coincidence_space.dim}"
        + ("" if coin.equivalent else "  [conditions differ; separators exist]"),
    ]
    if coin.separator_star_only is not None:
        results["separator_star_trivial_only"] = \
            {str(k): str(v) for k, v in coin.separator_star_only.items()}
        lines.append(f"    star-trivial but products differ: "
                     f"{_vector_str(coin.separator_star_only)}")
    if coin.separator_coincidence_only is not None:
        results["separator_coincidence_only"] = \
            {str(k): str(v) for k, v in coin.separator_coincidence_only.items()}
        lines.append(f"    products coincide but not star-trivial: "
                     f"{_vector_str(coin.separator_coincidence_only)}")
    doc = {"engine": _engine(), "command": "invariants",
           "brace": _brace_doc(desc), "results": results}
    _emit(doc, args.json, lines, started)
    return 0


def cmd_check_central(args) -> int:
    started = time.perf_counter()
    load = functools.cache(resolve)     # a map may name the input again
    desc, brace = load(args.input)
    map_doc = load_map(args.map)
    if map_doc.get("source") and load(map_doc["source"])[1] != brace:
        raise BraceFileError(
            f"map source {map_doc['source']!r} is not the input brace")
    tdesc, tbrace = load(map_doc.get("target") or args.input)
    H, T = HopfBrace(brace), HopfBrace(tbrace)
    try:
        f = HopfMorphism(H, T, map_doc["images"])
        report = analyze_extension(f)
    except MorphismError as exc:
        return _error(f"invalid map: {exc}")
    results = {
        "surjective": report.surjective,
        "kernel_carrier": list(report.kernel.carrier),
        "central_hopfcoc": report.central_hopfcoc,
        "central_huq": report.central_huq,
        "witness_hopfcoc": list(report.witness_hopfcoc)
        if report.witness_hopfcoc else None,
        "witness_huq": list(report.witness_huq) if report.witness_huq else None,
    }
    lines = [
        f"{desc.name} -> {tdesc.name}: central-extension verdicts",
        f"  kernel: {_carrier_str(report.kernel.carrier, desc.element_names)}",
        f"  central for the Hopf-algebra adjunction: {report.central_hopfcoc}"
        + (f"  witness {report.witness_hopfcoc}"
           if report.witness_hopfcoc else ""),
        f"  Huq-central: {report.central_huq}"
        + (f"  witness {report.witness_huq}" if report.witness_huq else ""),
    ]
    if report.central_hopfcoc:
        bad = centrality_consequences(f)
        results["consequence_violations"] = [list(p) for p in bad]
        lines.append(f"  products agree against the kernel: {not bad}")
    doc = {"engine": _engine(), "command": "check-central",
           "brace": _brace_doc(desc), "results": results}
    _emit(doc, args.json, lines, started)
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV)
        try:
            seed = int(env) if env else DEFAULT_SEED
        except ValueError:
            return _error(f"{SEED_ENV} must be an integer, got {env!r}")
    if args.max < 1:
        return _error(f"--max must be at least 1, got {args.max}")
    if args.samples < 0:
        return _error(f"--samples must be non-negative, got {args.samples}")
    if not (args.all or args.input):
        return _error("give a brace or --all")
    targets = builtin_catalog() if args.all else [resolve(args.input)]
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    lines = [f"seed: {seed}   samples: {args.samples}"]
    entries = []
    failed = False
    for desc, brace in targets:
        H = HopfBrace(brace)
        for suite in suites:
            report = verify_suite(H, suite, samples=args.samples, seed=seed,
                                  label=desc.name, max_n=args.max)
            entry = {"brace": desc.name, "suite": suite,
                     "basis_checks": report.basis_checks,
                     "random_checks": report.random_checks,
                     "violations": [str(v) for v in report.violations]}
            entries.append(entry)
            status = "ok" if report.ok else "FAIL"
            lines.append(f"  {desc.name:34s} {suite:12s} {status}  "
                         f"({report.basis_checks} basis, "
                         f"{report.random_checks} random)")
            for v in report.violations:
                lines.append(f"      violation: {v}")
            failed = failed or not report.ok
    doc = {"engine": _engine(), "command": "verify",
           "seed": seed, "samples": args.samples,
           "results": entries, "ok": not failed}
    _emit(doc, args.json, lines, started)
    return 1 if failed else 0


# ------------------------------------------------------------------ parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Reusing it is safe: every parse
    starts from a fresh Namespace, and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="hopfbrace",
        description="Exact engine for finite skew braces and their "
                    "group-algebra Hopf braces: series, socle/annihilator, "
                    "commutators, abelianisations and centrality checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output (deterministic)")

    p = sub.add_parser("validate", help="validate a brace file or catalog name")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("series", help="compute a central series")
    p.add_argument("input")
    p.add_argument("--kind", choices=("left", "right", "gamma"),
                   default="right")
    p.add_argument("--max", type=int, default=10)
    common(p)

    p = sub.add_parser("invariants",
                       help="socle, annihilator, center, abelianisations")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("check-central",
                       help="central-extension verdicts for a morphism")
    p.add_argument("input")
    p.add_argument("--map", required=True,
                   help="JSON file {source, target, images}")
    common(p)

    p = sub.add_parser("verify", help="run identity/proposition suites")
    p.add_argument("input", nargs="?")
    p.add_argument("--all", action="store_true",
                   help="verify every catalog brace")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (default {DEFAULT_SEED}, "
                        f"env {SEED_ENV})")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--max", type=int, default=10,
                   help="series depth for the propositions suite")
    common(p)
    return parser


def main(argv=None) -> int:
    """Run one command.  An input that fails to load ends here, the same
    way for every command: a parse error exits 2 with one ``error:``
    line, a brace that fails validation exits 1 with its witness."""
    args = build_parser().parse_args(argv)
    # Looked up on each call rather than kept in the parser, so that a
    # handler replaced on this module (a tracing span) is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except BraceFileError as exc:
        return _error(exc)
    except ValidationError as exc:
        print(f"invalid brace: {exc} (witness: {exc.witness})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
