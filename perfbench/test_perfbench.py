"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = ("radical_c4", "trivial:S3", "prod:radical_c4,trivial:S3")


def identity_relabelling(order, identity, seed, name):
    return list(range(order))


def summaries(queries):
    return {q.qid: q.summarize(q.run()) for q in queries}


def small_queries(tmp_path, seed=5):
    """Every query kind of the three workloads, on small catalog braces."""
    import hopfbrace as hb
    entries = [hb.lookup(name) for name in SMALL]
    tmp_path.mkdir(parents=True, exist_ok=True)
    queries = workloads.catalog_cli_queries(entries, seed, tmp_path)
    for name, H, perm in workloads.relabelled_hopf(
            [(d.name, b) for d, b in entries], seed):
        original = hb.HopfBrace(hb.lookup(name)[1])
        right = [t.carrier for t in hb.right_series(original).terms]
        gamma = [t.carrier for t in hb.gamma_series(original).terms]
        queries += workloads.series_queries(name, H, perm, seed, right, gamma)
        queries += workloads.linear_queries(name, H, perm)
    return queries


# ------------------------------------------------------------- estimators

def test_best_of_rounds_keeps_each_querys_minimum():
    samples = {"a": [0.3, 0.1, 0.2], "b": [0.5], "c": []}
    assert stats.best_of_rounds(samples) == {"a": 0.1, "b": 0.5}


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_count(153, 0.9) == 15
    assert stats.percentile(range(100), 0.9) == 89
    for n in (99, 72, 37):
        with pytest.raises(ValueError):
            stats.percentile(range(n), 0.9)
    assert stats.percentile(range(37), 0.5) == 18


def test_a_round_runs_each_query_its_repeats():
    import run
    calls = []
    queries = [workloads.Query(qid, lambda qid=qid: calls.append(qid),
                               lambda raw: None, repeats=repeats)
               for qid, repeats in (("light", 3), ("heavy", 1))]
    log = run.Log(queries)
    log.run_rounds(2, random.Random(1))
    assert sorted(calls) == ["heavy"] * 2 + ["light"] * 6
    assert {qid: len(t) for qid, t in log.samples.items()} == {
        "light": 6, "heavy": 2}
    assert log.attempted == 8 and not log.failures


def test_light_queries_are_fixed_by_the_workload(tmp_path):
    queries = workloads.setup("catalog-cli", 1, tmp_path,
                              workloads.load_reference("catalog-cli"))
    light = {q.qid for q in queries if q.repeats > 1}
    assert "trivial:S4/validate" in light and "bad/invalid-json" in light
    assert "trivial:C2/verify-lemma" not in light
    assert "prod:opposite:S4,trivial:C2/invariants" not in light
    assert all(q.repeats in (1, workloads.LIGHT_REPEATS) for q in queries)


# ------------------------------------------------------------ relabelling

def test_relabelling_moves_the_identity_and_is_seeded():
    for order in (2, 4, 24):
        perm = workloads.relabelling(order, 0, 3, "x")
        assert sorted(perm) == list(range(order)) and perm[0] != 0
        assert perm == workloads.relabelling(order, 0, 3, "x")


def test_relabelled_summaries_equal_the_originals(tmp_path, monkeypatch):
    relabelled = summaries(small_queries(tmp_path / "r"))
    monkeypatch.setattr(workloads, "relabelling", identity_relabelling)
    original = summaries(small_queries(tmp_path / "o"))
    assert relabelled == original
    kinds = {qid.split("/")[1].split("-")[0] for qid in original}
    assert kinds >= {"validate", "series", "invariants", "verify",
                     "check", "left_series", "right_series", "gamma_series",
                     "relative_commutator", "huq_commutator",
                     "star_abelianization", "full_abelianization",
                     "verify_suite", "socle_annihilator",
                     "coincidence_report"}


def test_reference_matches_small_queries(tmp_path):
    reference = workloads.load_reference("catalog-cli")
    got = summaries(small_queries(tmp_path))
    cli = {qid: s for qid, s in got.items() if qid in reference}
    assert len(cli) == 3 * 9 + 2
    assert cli == {qid: reference[qid] for qid in cli}


def test_malformed_slice_fails_only_on_known_defects(tmp_path):
    for q in workloads.malformed_queries(tmp_path):
        try:
            problem = q.check(q.run())
        except Exception as exc:
            problem = repr(exc)
        assert problem is None or q.known_defect, (q.qid, problem)


# ----------------------------------------------------------------- tracing

def traced_pass(queries):
    tracer = Tracer()
    with tracer.installed():
        got = summaries(queries)
    return tracer, got


def test_traced_summaries_equal_untraced(tmp_path):
    import hopfbrace.linalg
    import hopfbrace.series
    queries = small_queries(tmp_path)
    untraced = summaries(queries)
    tracer, traced = traced_pass(queries)
    assert traced == untraced
    assert (hopfbrace.series.common_nullspace
            is hopfbrace.linalg.common_nullspace)
    assert not hasattr(hopfbrace.linalg.common_nullspace, "__wrapped__")
    metrics = tracer.metrics()
    for name, (value, unit) in metrics.items():
        if unit == "s":
            assert value > 0, name
    commutator_queries = sum("_commutator-" in qid for qid in untraced)
    assert metrics["series.commutators"][0] >= commutator_queries > 0


def test_traced_counts_repeat_exactly(tmp_path):
    queries = small_queries(tmp_path)
    first, _ = traced_pass(queries)
    second, _ = traced_pass(list(reversed(queries)))
    counts = {k: v for k, v in first.metrics().items() if v[1] != "s"}
    assert counts == {k: second.metrics()[k] for k in counts}
    assert counts["linalg.solves"][0] > 0 and counts["hopf.ops"][0] > 0


# ------------------------------------------------------------- end to end

def run_bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)


def test_result_line_has_the_contract_keys():
    proc = run_bench(HERE.parent, "--workload", "catalog-cli", "--seed", "2",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {"setup_s", "query_p50_s", "peak_rss_mb"}
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    assert detail["pass_s"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "catalog-cli", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
