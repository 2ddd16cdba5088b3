"""Command-line interface: validate, series, invariants, check-central,
verify.

Each command computes one results document: ``--json`` prints it,
byte-identical for a fixed seed, and otherwise the command's renderer
turns it into a text report ending in a wall-clock ``elapsed:`` line.
Exit codes: 0 success, 1 verification failure, 2 input/parse error on
one ``error:`` line, argparse's too (brace and map files are capped at
``catalog.MAX_FILE_BYTES``), and ``CLOSED_OUTPUT`` (141) for a stdout
closed before the output was written.  The parser is built on the first
``main`` call and reused, and each call loads each distinct input once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .catalog import builtin_catalog, load_map, resolve
from .errors import BraceFileError, MorphismError, ValidationError
from .extensions import analyze_extension, centrality_consequences
from .hopf import HopfBrace
from .series import (coincidence_report, full_abelianization, hopf_center,
                     left_series, right_series, gamma_series,
                     socle_annihilator, star_abelianization)
from .subobjects import HopfMorphism
from .verify import DEFAULT_SAMPLES, DEFAULT_SEED, SUITES, verify_suite

SEED_ENV = "HOPFBRACE_SEED"
CLOSED_OUTPUT = 141     # 128 + SIGPIPE, as a shell reports a killed writer


def _error(message) -> int:
    """Report a bad input on one stderr line; exit code 2."""
    print("error:", " ".join(str(message).splitlines()), file=sys.stderr)
    return 2


def integer(text: str) -> int:
    """A flag's or ``SEED_ENV``'s integer: an optional ``-`` and ASCII
    digits, not Python's literal syntax (``1_0``, ``+3``, `` 3``)."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _document(command: str, desc, results, **fields) -> dict:
    """A command's results document; ``desc`` is the brace it is about."""
    if desc is not None:
        fields["brace"] = {"name": desc.name, "order": desc.order,
                           "construction": desc.construction}
    return {"engine": {"name": "hopfbrace", "version": __version__},
            "command": command, "results": results, **fields}


def _emit(args, doc: dict, render, *context) -> int:
    """Print ``doc`` as JSON, or as the text report ``render(doc, *context)``
    and the elapsed time; exit code 1 if the document is not ``ok``."""
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(*render(doc, *context), sep="\n")
        print(f"elapsed: {time.perf_counter() - args.started:.3f}s")
    return 0 if doc.get("ok", True) else 1


def _carrier_str(carrier, names) -> str:
    idx = f"[{', '.join(map(str, carrier))}]"
    return f"{idx}  ({', '.join(names[g] for g in carrier)})" if names else idx


def _vector_str(vec: dict) -> str:
    """A separator of a document, {index: coefficient}, as ``g1 - 2*g3``."""
    bits = []
    for idx, val in vec.items():
        mag = val.lstrip("-")
        coeff = "" if mag == "1" else f"{mag}*"
        bits.append(f"{'-' if val.startswith('-') else '+'} {coeff}g{idx}")
    return " ".join(bits).removeprefix("+ ")


# --------------------------------------------------------------- renderers
# Each turns its command's document into the lines of the text report;
# ``names`` are the brace's element names, shown beside carrier indices.

def _validate_text(doc):
    yield (f"{doc['brace']['name']}: valid skew brace of order "
           f"{doc['brace']['order']}")


def _series_text(doc, names):
    r = doc["results"]
    yield f"{doc['brace']['name']}: {r['kind']} series"
    for term in r["terms"]:
        yield (f"  term {term['index']}: size {term['size']}  carrier "
               f"{_carrier_str(term['carrier'], names)}")
        if term["generators"]:
            yield f"           generators {term['generators']}"
    yield f"  stabilized: {r['stabilized']}   nil class: {r['nil_class']}"


def _invariants_text(doc, names):
    r = doc["results"]
    yield f"{doc['brace']['name']}: invariants"
    for label, key in (("socle      (Soc)", "socle"),
                       ("annihilator(Ann)", "annihilator")):
        yield (f"  {label}: {_carrier_str(r[key + '_carrier'], names)}  "
               f"space dim {r[key + '_space_dim']}"
               + ("  [strictly larger than the group-like span]"
                  if r[key + "_space_strict"] else ""))
    yield f"  hopf center: {_carrier_str(r['hopf_center_carrier'], names)}"
    yield (f"  dim of star-abelianization (products fused): "
           f"{r['dim_star_abelianization']}")
    yield f"  dim of full abelianization: {r['dim_full_abelianization']}"
    yield (f"  star-trivial space dim {r['star_trivial_space_dim']}; "
           f"product-coincidence space dim "
           f"{r['product_coincidence_space_dim']}"
           + ("" if r["star_trivial_equals_coincidence"]
              else "  [conditions differ; separators exist]"))
    for key, label in (("separator_star_trivial_only",
                        "star-trivial but products differ"),
                       ("separator_coincidence_only",
                        "products coincide but not star-trivial")):
        if key in r:
            yield f"    {label}: {_vector_str(r[key])}"


def _check_central_text(doc, names, target):
    r = doc["results"]
    yield f"{doc['brace']['name']} -> {target}: central-extension verdicts"
    yield f"  kernel: {_carrier_str(r['kernel_carrier'], names)}"
    for label, key in (("central for the Hopf-algebra adjunction", "hopfcoc"),
                       ("Huq-central", "huq")):
        witness = r["witness_" + key]
        yield (f"  {label}: {r['central_' + key]}"
               + (f"  witness {tuple(witness)}" if witness else ""))
    if "consequence_violations" in r:
        yield (f"  products agree against the kernel: "
               f"{not r['consequence_violations']}")


def _verify_text(doc):
    yield f"seed: {doc['seed']}   samples: {doc['samples']}"
    for entry in doc["results"]:
        yield ("  {brace:34s} {suite:12s} {status}  ({basis_checks} basis, "
               "{random_checks} random)").format(
                   status="FAIL" if entry["violations"] else "ok", **entry)
        for v in entry["violations"]:
            yield f"      violation: {v}"


# ---------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    desc, _ = resolve(args.input)
    doc = _document("validate", desc, {"valid": True})
    return _emit(args, doc, _validate_text)


def cmd_series(args) -> int:
    desc, brace = resolve(args.input)
    result = {"left": left_series, "right": right_series,
              "gamma": gamma_series}[args.kind](HopfBrace(brace))
    terms = [{"index": k + 1, "size": term.dim,
              "carrier": list(term.carrier), "generators": sorted(gens)}
             for k, (term, gens) in enumerate(zip(result.terms,
                                                  result.generators))]
    doc = _document("series", desc, {"kind": args.kind, "terms": terms,
                                     "stabilized": result.stabilized,
                                     "nil_class": result.nil_class})
    return _emit(args, doc, _series_text, desc.element_names)


def cmd_invariants(args) -> int:
    desc, brace = resolve(args.input)
    H = HopfBrace(brace)
    soc = socle_annihilator(H)
    coin = coincidence_report(H)
    results = {
        "socle_carrier": list(soc.socle.carrier),
        "annihilator_carrier": list(soc.annihilator.carrier),
        "socle_space_dim": soc.socle_space.dim,
        "annihilator_space_dim": soc.annihilator_space.dim,
        "socle_space_strict": soc.socle_strict,
        "annihilator_space_strict": soc.annihilator_strict,
        "hopf_center_carrier": list(hopf_center(H).carrier),
        "dim_star_abelianization": star_abelianization(H)[0].dim,
        "dim_full_abelianization": full_abelianization(H)[0].dim,
        "star_trivial_space_dim": coin.star_trivial_space.dim,
        "product_coincidence_space_dim": coin.coincidence_space.dim,
        "star_trivial_equals_coincidence": coin.equivalent,
    }
    for key, vec in (("separator_star_trivial_only", coin.separator_star_only),
                     ("separator_coincidence_only",
                      coin.separator_coincidence_only)):
        if vec is not None:
            results[key] = {str(k): str(v) for k, v in vec.items()}
    doc = _document("invariants", desc, results)
    return _emit(args, doc, _invariants_text, desc.element_names)


def cmd_check_central(args) -> int:
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
        "surjective": True,         # analyze_extension refuses any other map
        "kernel_carrier": list(report.kernel.carrier),
        "central_hopfcoc": report.central_hopfcoc,
        "central_huq": report.central_huq,
        "witness_hopfcoc":
            report.witness_hopfcoc and list(report.witness_hopfcoc),
        "witness_huq": report.witness_huq and list(report.witness_huq),
    }
    if report.central_hopfcoc:
        results["consequence_violations"] = \
            [list(p) for p in centrality_consequences(report)]
    doc = _document("check-central", desc, results)
    return _emit(args, doc, _check_central_text, desc.element_names,
                 tdesc.name)


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV)
        try:
            seed = integer(env) if env else DEFAULT_SEED
        except ValueError:
            return _error(f"{SEED_ENV} must be an integer, got {env!r}")
    if args.samples < 0:
        return _error(f"--samples must be non-negative, got {args.samples}")
    if args.all == (args.input is not None):
        return _error("give a brace or --all, not both")
    targets = builtin_catalog() if args.all else [resolve(args.input)]
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    entries = []
    for desc, brace in targets:
        H = HopfBrace(brace)
        for suite in suites:
            report = verify_suite(H, suite, samples=args.samples, seed=seed)
            entries.append({"brace": desc.name, "suite": suite,
                            "basis_checks": report.basis_checks,
                            "random_checks": report.random_checks,
                            "violations": list(map(str, report.violations))})
    doc = _document("verify", None, entries, seed=seed, samples=args.samples,
                    ok=not any(entry["violations"] for entry in entries))
    return _emit(args, doc, _verify_text)


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """A parse error exits 2 with one ``error:`` line (subparsers are of
    this class too).  argparse drops an OSError from printing help or the
    version; let one on stdout reach ``main``, like any failed write."""

    def error(self, message):
        self.exit(_error(message))

    def _print_message(self, message, file=None):
        if file is sys.stdout and message:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  Reusing it is safe: every parse
    starts from a fresh Namespace, and no default is mutable."""
    parser = _Parser(
        prog="hopfbrace",
        description="Exact engine for finite skew braces and their "
                    "group-algebra Hopf braces: series, socle/annihilator, "
                    "commutators, abelianisations and centrality checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a brace file or catalog name")
    p.add_argument("input")

    p = sub.add_parser("series", help="compute a central series")
    p.add_argument("input")
    p.add_argument("--kind", choices=("left", "right", "gamma"),
                   default="right")

    p = sub.add_parser("invariants",
                       help="socle, annihilator, center, abelianisations")
    p.add_argument("input")

    p = sub.add_parser("check-central",
                       help="central-extension verdicts for a morphism")
    p.add_argument("input")
    p.add_argument("--map", required=True,
                   help="JSON file {source, target, images}")

    p = sub.add_parser("verify", help="run identity/proposition suites")
    p.add_argument("input", nargs="?")
    p.add_argument("--all", action="store_true",
                   help="verify every catalog brace")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=integer, default=None,
                   help=f"random seed (default {DEFAULT_SEED}, "
                        f"env {SEED_ENV})")
    p.add_argument("--samples", type=integer, default=DEFAULT_SAMPLES)
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true",
                       help="machine-readable output (deterministic)")
    return parser


def main(argv=None) -> int:
    """Run one command.  An input that fails to load ends here, the same
    way for every command: a parse error exits 2 with one ``error:``
    line, a brace that fails validation exits 1 with its witness.  A
    closed stdout, up to the last flush, exits ``CLOSED_OUTPUT``."""
    try:
        try:
            args = build_parser().parse_args(argv)
            args.started = time.perf_counter()
            # Looked up on each call, so that a handler replaced on this
            # module (a tracing span) is the one that runs.
            return globals()["cmd_" + args.command.replace("-", "_")](args)
        except BraceFileError as exc:
            return _error(exc)
        except ValidationError as exc:
            print(f"invalid brace: {exc} (witness: {exc.witness})",
                  file=sys.stderr)
            return 1
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # As the Python docs' SIGPIPE note advises: point stdout at devnull,
        # so that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_OUTPUT
