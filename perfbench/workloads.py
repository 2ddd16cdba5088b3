"""The benchmark's three workloads: set-up, queries and output checks.

Every workload relabels the carrier of each brace it builds or writes to
a file with a permutation drawn from the workload seed, so that the
identity is never index 0.  Each query's output is reduced to a summary
that the relabelling does not change (carriers are mapped back through
the inverse permutation; witnesses and separators, which depend on the
labelling, only by presence), and the summary is compared with the one
recorded in ``reference/<workload>.json``.

Nothing here imports numpy or hopfbrace at module level: importing them
is part of the timed set-up.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("catalog-cli", "ladder")
SUITES = ("axioms", "lemma", "structure", "propositions")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# How many times each round runs a light query.  A query's best time
# needs samples spread over the whole run to catch one of the host's fast
# windows (see NOTES.md).  The light queries set query_p50_s and are cheap
# enough to sample several times a round.  Which queries are light is
# fixed by the workload, not by their timings, so that both commits of a
# comparison run the same schedule.
LIGHT_REPEATS = 3


class Query:
    """One timed call.  ``run`` takes no arguments and returns the raw
    output; ``summarize`` turns it into a JSON-able, relabelling-invariant
    summary that must equal ``expected``.  ``known_defect`` marks the
    malformed inputs that ROADMAP item 5 lists as mishandled at the seed
    commit: their failures are counted, but do not make a run incorrect.
    ``repeats`` is how many times each round runs the query."""

    __slots__ = ("qid", "run", "summarize", "expected", "known_defect",
                 "repeats")

    def __init__(self, qid, run, summarize, expected=None, known_defect=False,
                 repeats=1):
        self.qid = qid
        self.run = run
        self.summarize = summarize
        self.expected = expected
        self.known_defect = known_defect
        self.repeats = repeats

    def check(self, raw):
        """None when the output is right, else a one-line problem."""
        got = self.summarize(raw)
        if got == self.expected:
            return None
        return f"summary {json.dumps(got, sort_keys=True)[:300]}"


# ------------------------------------------------------------- relabelling

def relabelling(order: int, identity: int, seed: int, name: str) -> list[int]:
    """perm[old] = new; a seeded shuffle that moves the identity off 0."""
    rng = random.Random(f"{seed}:{name}")
    perm = list(range(order))
    while True:
        rng.shuffle(perm)
        if perm[identity] != 0:
            return perm


def inverse(perm) -> list[int]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def relabel(brace, perm):
    """The same brace with carrier index g renamed perm[g], revalidated."""
    import numpy as np
    from hopfbrace import validate_skew_brace
    p = np.asarray(perm, dtype=np.int64)
    q = np.argsort(p)

    def table(t):
        return p[t[np.ix_(q, q)]]

    return validate_skew_brace(table(brace.dot.table), table(brace.circ.table),
                               identity=int(p[brace.identity]))


def back(inv, carrier) -> list[int]:
    return sorted(inv[int(g)] for g in carrier)


# --------------------------------------------------------------- summaries

def series_summary(kind, carriers, generators, stabilized, nil_class, inv):
    return {"kind": kind, "stabilized": stabilized, "nil_class": nil_class,
            "terms": [{"size": len(c), "carrier": back(inv, c),
                       "generators": back(inv, g)}
                      for c, g in zip(carriers, generators)]}


def central_summary(report_hopfcoc, report_huq, inv):
    return {"kernel": back(inv, report_hopfcoc.kernel.carrier),
            "central_hopfcoc": report_hopfcoc.central_hopfcoc,
            "central_huq": report_huq.central_huq,
            "witness_hopfcoc": report_hopfcoc.witness_hopfcoc is not None,
            "witness_huq": report_huq.witness_huq is not None}


def suite_summary(report):
    return {"basis_checks": report.basis_checks,
            "random_checks": report.random_checks,
            "ok": report.ok, "violations": len(report.violations)}


def socle_summary(soc, inv):
    return {"socle": back(inv, soc.socle.carrier),
            "annihilator": back(inv, soc.annihilator.carrier),
            "socle_space_dim": soc.socle_space.dim,
            "annihilator_space_dim": soc.annihilator_space.dim,
            "socle_strict": soc.socle_strict,
            "annihilator_strict": soc.annihilator_strict}


def coincidence_summary(coin):
    return {"star_trivial_dim": coin.star_trivial_space.dim,
            "coincidence_dim": coin.coincidence_space.dim,
            "equivalent": coin.equivalent,
            "separator_star_only": coin.separator_star_only is not None,
            "separator_coincidence_only":
                coin.separator_coincidence_only is not None}


# ---------------------------------------------------------- CLI queries

def run_cli(argv, env=None):
    """One in-process ``hopfbrace`` call: (exit code, stdout, stderr).
    SystemExit is caught; any other exception escapes, because the user
    would see it as a traceback."""
    from hopfbrace.cli import main
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (
                    0 if exc.code is None else 1)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def cli_query(qid, argv, reduce, repeats=1):
    """A well-formed CLI query whose --json document is reduced by
    ``reduce``; an unexpected exit code is reduced to the code and stderr."""

    def summarize(raw):
        code, out, err = raw
        if code != 0:
            return {"exit": code, "stderr": err.strip()[:200]}
        return {"exit": code, **reduce(json.loads(out))}

    return Query(qid, lambda: run_cli(argv), summarize, repeats=repeats)


def malformed_summary(raw):
    code, _, err = raw
    return {"exit": code, "stderr_lines": len(err.strip().splitlines()),
            "traceback": "Traceback" in err}


def malformed_query(qid, argv, exit_code, env=None, known_defect=False):
    """A bad input: the README contract wants ``exit_code`` with a
    one-line diagnostic on stderr and no traceback."""
    return Query(qid, lambda: run_cli(argv, env), malformed_summary,
                 expected={"exit": exit_code, "stderr_lines": 1,
                           "traceback": False},
                 known_defect=known_defect, repeats=LIGHT_REPEATS)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _slug(name: str) -> str:
    return name.replace(":", "_").replace(",", "+")


def _product_factors(name: str) -> list[str]:
    return name[len("prod:"):].split(",")


def catalog_cli_queries(entries, seed: int, workdir) -> list[Query]:
    """Writes relabelled brace and map files for ``entries`` (catalog
    (descriptor, brace) pairs) and returns the CLI queries on them.
    The light ones, which take under ~10 ms at the seed commit, are
    ``validate``, ``series`` and ``check-central`` up to order 24, and
    ``invariants`` and ``verify --suite propositions`` up to order 12."""
    from hopfbrace.catalog import save_brace, save_map
    workdir = Path(workdir)
    files, perms = {}, {}
    for desc, brace in entries:
        perm = relabelling(brace.order, brace.identity, seed, desc.name)
        files[desc.name] = str(workdir / f"{_slug(desc.name)}.json")
        perms[desc.name] = perm
        save_brace(relabel(brace, perm), files[desc.name], name=desc.name)

    sizes = {desc.name: brace.order for desc, brace in entries}

    def repeats(name, max_order):
        return LIGHT_REPEATS if sizes[name] <= max_order else 1

    queries = []
    for desc, _ in entries:
        name = desc.name
        path, inv = files[name], inverse(perms[name])
        queries.append(cli_query(
            f"{name}/validate", ["validate", path, "--json"],
            lambda d: {"valid": d["results"]["valid"],
                       "order": d["brace"]["order"],
                       "name": d["brace"]["name"]},
            repeats(name, 24)))
        for kind in ("left", "right", "gamma"):
            queries.append(cli_query(
                f"{name}/series-{kind}",
                ["series", path, "--kind", kind, "--json"],
                lambda d, inv=inv: series_summary(
                    d["results"]["kind"],
                    [t["carrier"] for t in d["results"]["terms"]],
                    [t["generators"] for t in d["results"]["terms"]],
                    d["results"]["stabilized"], d["results"]["nil_class"],
                    inv),
                repeats(name, 24)))
        queries.append(cli_query(
            f"{name}/invariants", ["invariants", path, "--json"],
            lambda d, inv=inv: _invariants_summary(d["results"], inv),
            repeats(name, 12)))
        for suite in SUITES:
            queries.append(cli_query(
                f"{name}/verify-{suite}",
                ["verify", name, "--suite", suite, "--seed", str(seed),
                 "--json"],
                lambda d: {"ok": d["ok"], "samples": d["samples"],
                           "results": [[r["brace"], r["suite"],
                                        r["basis_checks"], r["random_checks"],
                                        len(r["violations"])]
                                       for r in d["results"]]},
                repeats(name, 12) if suite == "propositions" else 1))

    for name in files:
        if not name.startswith("prod:"):
            continue
        factors = _product_factors(name)
        n2 = sizes[factors[1]]
        inv = inverse(perms[name])
        for k, factor in enumerate(factors):
            if factor not in files:
                continue
            proj = [g // n2 if k == 0 else g % n2 for g in range(sizes[name])]
            images = [0] * sizes[name]
            for g, image in enumerate(proj):
                images[perms[name][g]] = perms[factor][image]
            map_path = str(workdir / f"{_slug(name)}-to-{k}.map.json")
            save_map(images, map_path, source=files[name],
                     target=files[factor])
            queries.append(cli_query(
                f"{name}/check-central-{k}",
                ["check-central", files[name], "--map", map_path, "--json"],
                lambda d, inv=inv: _central_cli_summary(d["results"], inv),
                repeats(name, 24)))
    return queries


def _invariants_summary(results, inv):
    out = {}
    for key, value in results.items():
        if key.startswith("separator_"):
            continue
        out[key] = back(inv, value) if key.endswith("_carrier") else value
    out["separators"] = sorted(k for k in results
                               if k.startswith("separator_"))
    return out


def _central_cli_summary(results, inv):
    return {"surjective": results["surjective"],
            "kernel": back(inv, results["kernel_carrier"]),
            "central_hopfcoc": results["central_hopfcoc"],
            "central_huq": results["central_huq"],
            "witness_hopfcoc": results["witness_hopfcoc"] is not None,
            "witness_huq": results["witness_huq"] is not None,
            "consequence_violations":
                len(results.get("consequence_violations", []))}


C4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
RADICAL_C4 = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]


def malformed_queries(workdir) -> list[Query]:
    """The bad-input slice.  The first five are handled as the README
    promises at the seed commit; the rest are the ROADMAP item-5 defects."""
    workdir = Path(workdir)

    def brace_file(stem, **fields):
        doc = {"name": stem, "order": 4, "identity": 0,
               "dot_table": C4, "circ_table": RADICAL_C4}
        doc.update(fields)
        path = str(workdir / f"bad-{stem}.json")
        _write_json(path, doc)
        return path

    def map_file(stem, images):
        path = str(workdir / f"bad-{stem}.map.json")
        _write_json(path, {"source": "", "target": "trivial:C2",
                           "images": images})
        return path

    x3 = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]          # x.y = -x-y mod 3
    bad_json = str(workdir / "bad-json.json")
    with open(bad_json, "w", encoding="utf-8") as fh:
        fh.write('{"order": 4, "identity": 0, "dot_table": [[0, 1')
    floats = [row[:] for row in C4]
    floats[1][1] = 2.5                               # truncates to 2
    strings = [row[:] for row in C4]
    strings[1][1] = "x"
    return [
        malformed_query("bad/non-associative", ["validate", brace_file(
            "nonassoc", order=3, dot_table=x3, circ_table=x3), "--json"], 1),
        malformed_query("bad/compatibility", ["validate", brace_file(
            "compat", circ_table=[[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1],
                                  [3, 2, 1, 0]]), "--json"], 1),
        malformed_query("bad/invalid-json",
                        ["validate", bad_json, "--json"], 2),
        malformed_query("bad/non-square", ["validate", brace_file(
            "nonsquare", dot_table=[r[:3] for r in C4]), "--json"], 2),
        malformed_query("bad/non-homomorphism", [
            "check-central", "radical_c4", "--map",
            map_file("nonhom", [0, 1, 1, 0]), "--json"], 2),
        malformed_query("bad/float-entry", ["validate", brace_file(
            "float", dot_table=floats), "--json"], 2, known_defect=True),
        malformed_query("bad/string-entry", ["validate", brace_file(
            "string", dot_table=strings), "--json"], 2, known_defect=True),
        malformed_query("bad/string-image", [
            "check-central", "radical_c4", "--map",
            map_file("strimg", [0, "x", 0, 1]), "--json"], 2,
            known_defect=True),
        malformed_query("bad/seed-env", [
            "verify", "radical_c4", "--suite", "axioms", "--json"], 2,
            env={"HOPFBRACE_SEED": "abc"}, known_defect=True),
        malformed_query("bad/series-max-0", [
            "series", "radical_c4", "--max", "0", "--json"], 2,
            known_defect=True),
        malformed_query("bad/negative-samples", [
            "verify", "radical_c4", "--suite", "axioms", "--samples", "-1",
            "--json"], 2, known_defect=True),
        malformed_query("bad/non-integer-identity", ["validate", brace_file(
            "identity", identity=0.5), "--json"], 2, known_defect=True),
    ]


# ------------------------------------------------------- ladder braces

LADDER = {
    "opposite:D48": lambda hb: hb.opposite_brace(hb.dihedral_group(48)),
    "opposite:S4*trivial:C4": lambda hb: hb.direct_product(
        hb.opposite_brace(hb.symmetric_group(4)),
        hb.trivial_brace(hb.cyclic_group(4))),
    "opposite:D64": lambda hb: hb.opposite_brace(hb.dihedral_group(64)),
    "opposite:S4*radical_c4*trivial:C2": lambda hb: hb.direct_product(
        hb.direct_product(hb.opposite_brace(hb.symmetric_group(4)),
                          hb.radical_c4_brace()),
        hb.trivial_brace(hb.cyclic_group(2))),
}


def ladder_braces(names=tuple(LADDER)):
    """(name, brace) for the synthetic ladder of orders 96, 96, 128, 192."""
    import hopfbrace as hb
    return [(name, LADDER[name](hb)) for name in names]


# Best-of-rounds needs many rounds: within one process the host gives a
# fast window only now and then (see NOTES.md), so a query needs 10 or
# more samples to catch one.  That bounds a round to a few seconds, so
# the series queries run on two of the four ladder braces, and at order
# 192 leave out the whole-brace relative commutator (~4.5 s) and the
# identity suites (~0.9 s).  Both still run at order 96.
SERIES_BRACES = ("opposite:D48", "opposite:S4*radical_c4*trivial:C2")
LEFT_OUT = {
    "opposite:S4*radical_c4*trivial:C2/relative_commutator-1",
    "opposite:S4*radical_c4*trivial:C2/verify_suite-axioms",
    "opposite:S4*radical_c4*trivial:C2/verify_suite-lemma",
    "opposite:S4*radical_c4*trivial:C2/verify_suite-structure",
}
# The light series queries: those that take under ~20 ms at the seed
# commit.
SERIES_LIGHT = {
    *(f"{name}/{kind}" for name in SERIES_BRACES
      for kind in ("star_abelianization", "huq_commutator-2",
                   "huq_commutator-3", "huq_commutator-4")),
    *(f"opposite:D48/{kind}" for kind in (
        "left_series", "right_series", "full_abelianization",
        "huq_commutator-5", "huq_commutator-6", "relative_commutator-5",
        "relative_commutator-6", "verify_suite-axioms")),
}
# For the same reason coincidence_report runs only on the catalog (orders
# up to 48; ~2.4 s at 96, ~4.8 s at 128, ~13 s at 192).
COINCIDENCE_MAX_ORDER = 48
# The light linear queries, which take under ~10 ms at the seed commit:
# socle_annihilator up to order 24, coincidence_report up to 16.
SOCLE_LIGHT_MAX_ORDER = 24
COINCIDENCE_LIGHT_MAX_ORDER = 16


def relabelled_hopf(named_braces, seed):
    """[(name, HopfBrace on the relabelled brace, perm)]."""
    from hopfbrace import HopfBrace
    out = []
    for name, brace in named_braces:
        perm = relabelling(brace.order, brace.identity, seed, name)
        out.append((name, HopfBrace(relabel(brace, perm)), perm))
    return out


def series_queries(name, H, perm, seed, right_terms, gamma_terms):
    """The series queries of the ladder workload on one brace.  ``right_terms``
    and ``gamma_terms`` are the series carriers in original labels, taken
    from the reference so that the commutator queries do not depend on the
    series code."""
    import hopfbrace as hb
    inv = inverse(perm)
    queries = []
    # Functions are looked up on the package at call time, so that a
    # traced pass sees the wrapped ones.
    for kind in ("left", "right", "gamma"):
        queries.append(Query(
            f"{name}/{kind}_series",
            lambda fn=f"{kind}_series": getattr(hb, fn)(H),
            lambda r, kind=kind: series_summary(
                kind, [t.carrier for t in r.terms], r.generators,
                r.stabilized, r.nil_class, inv)))
    for fn, terms in (("relative_commutator", right_terms),
                      ("huq_commutator", gamma_terms)):
        for k, carrier in enumerate(terms):
            forward = [perm[g] for g in carrier]
            queries.append(Query(
                f"{name}/{fn}-{k + 1}",
                lambda fn=fn, forward=forward:
                    getattr(hb, fn)(hb.Subbrace(H, forward), H),
                lambda sub: {"carrier": back(inv, sub.carrier)}))
    for fn in ("star_abelianization", "full_abelianization"):
        def run(fn=fn):
            Q, pi = getattr(hb, fn)(H)
            return Q, hb.check_central_hopfcoc(pi), hb.check_central_huq(pi)
        queries.append(Query(
            f"{name}/{fn}", run,
            lambda r: {"dim": r[0].dim, **central_summary(r[1], r[2], inv)}))
    for suite in ("axioms", "lemma", "structure"):
        queries.append(Query(
            f"{name}/verify_suite-{suite}",
            lambda suite=suite: hb.verify_suite(H, suite, seed=seed),
            suite_summary))
    return queries


def linear_queries(name, H, perm, coincidence=True):
    import hopfbrace as hb
    inv = inverse(perm)

    def repeats(max_order):
        return LIGHT_REPEATS if H.dim <= max_order else 1

    queries = [Query(f"{name}/socle_annihilator",
                     lambda: hb.socle_annihilator(H),
                     lambda soc: socle_summary(soc, inv),
                     repeats=repeats(SOCLE_LIGHT_MAX_ORDER))]
    if coincidence:
        queries.append(Query(f"{name}/coincidence_report",
                             lambda: hb.coincidence_report(H),
                             coincidence_summary,
                             repeats=repeats(COINCIDENCE_LIGHT_MAX_ORDER)))
    return queries


# ------------------------------------------------------------- set-up

def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def series_terms(reference: dict, name: str, kind: str) -> list[list[int]]:
    summary = reference[f"{name}/{kind}_series"]
    return [t["carrier"] for t in summary["terms"]]


def setup(workload: str, seed: int, workdir, reference: dict) -> list[Query]:
    """Import hopfbrace, build, validate and relabel the workload's braces,
    write its input files, and return its queries with their expected
    summaries.  ``reference`` maps query ids to expected summaries."""
    from hopfbrace.catalog import builtin_catalog
    os.makedirs(workdir, exist_ok=True)
    if workload == "catalog-cli":
        queries = (catalog_cli_queries(builtin_catalog(), seed, workdir)
                   + malformed_queries(workdir))
    elif workload == "ladder":
        named = [(d.name, b) for d, b in builtin_catalog()] + ladder_braces()
        queries = []
        for name, H, perm in relabelled_hopf(named, seed):
            if name in SERIES_BRACES:
                queries += series_queries(
                    name, H, perm, seed,
                    series_terms(reference, name, "right"),
                    series_terms(reference, name, "gamma"))
            queries += linear_queries(
                name, H, perm, coincidence=H.dim <= COINCIDENCE_MAX_ORDER)
        queries = [q for q in queries if q.qid not in LEFT_OUT]
        for q in queries:
            if q.qid in SERIES_LIGHT:
                q.repeats = LIGHT_REPEATS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for q in queries:
        if q.expected is None:
            q.expected = reference.get(q.qid)
    return queries
