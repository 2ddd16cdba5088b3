"""hopfbrace benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload catalog-cli --seed 1 --seconds 45 --trace 0

Set-up builds the workload's queries (see workloads.py).  The queries
then run in a fixed number of shuffled rounds, set by --seconds, and each
output is checked against the reference.  A round runs the light queries
several times each, at shuffled places.  query_p50_s, and pass_s in the
detail line, come from each query's best time over all its samples.
With --trace 1 the run makes half the rounds and then one traced pass,
and reports the per-layer metrics instead.

The last line of stdout is the result object; the line before it holds
every raw sample, the machine and the failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy asks the kernel for transparent huge pages on large arrays, which
# it grants or not depending on how fragmented the host's memory is.
# Pinned off, like the thread counts, so that the figures do not depend
# on it.
PINNED_ENV = {**{var: "1" for var in THREAD_VARS},
              "NUMPY_MADVISE_HUGEPAGE": "0"}
# Set-ups per run: the in-process one plus fresh interpreters.  The
# catalog-cli set-up takes ~0.2 s and moves by half from one set-up to the
# next, so it is sampled more often.
SETUP_SAMPLES = {"catalog-cli": 7, "ladder": 3}
MIN_ROUNDS = 2
# Rounds per 45 s of --seconds, fixed before the run starts, so that the
# number of rounds (and with it the best-of-rounds estimate) does not
# depend on how fast the host happens to run, and is the same on both
# commits.  On a 2-CPU Xeon host a round takes 3.5-6 s on catalog-cli and
# 5-7.5 s on ladder, depending on the host's speed.
ROUNDS_PER_45_S = {"catalog-cli": 9, "ladder": 7}
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import stats      # noqa: E402
import workloads  # noqa: E402


def calibrate() -> float:
    """A fixed pure-Python plus numpy kernel: a host-speed reading."""
    import numpy as np
    start = perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + i) % 1_000_003
    idx = np.arange(96)
    table = (idx[:, None] + idx[None, :]) % 96
    for _ in range(2):
        acc += int((table[table, :] == table[:, table]).sum())
    return perf_counter() - start


def run_sample(query) -> tuple[float, str | None]:
    """Time one query; returns (seconds, problem or None).  Exceptions
    are the query's failures and never abort the run."""
    start = perf_counter()
    try:
        raw = query.run()
    except Exception as exc:
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        return elapsed, query.check(raw)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


class Log:
    """Raw samples and failures of every round in a run."""

    def __init__(self, queries):
        self.queries = {q.qid: q for q in queries}
        self.samples = {q.qid: [] for q in queries}
        self.rounds = []
        self.failures = []
        self.attempted = 0

    def run_round(self, order, traced=False):
        calib_s = calibrate()
        gc.collect()
        start = perf_counter()
        times = []
        for query in order:
            elapsed, problem = run_sample(query)
            times.append((query.qid, elapsed))
            if problem is not None:
                self.failures.append({"round": len(self.rounds),
                                      "qid": query.qid, "problem": problem})
        self.attempted += len(order)
        self.rounds.append({"calib_s": calib_s, "traced": traced,
                            "round_s": perf_counter() - start})
        if not traced:
            for qid, elapsed in times:
                self.samples[qid].append(elapsed)
        return times

    def run_rounds(self, rounds, rng):
        """Each round runs every query ``repeats`` times, in an order
        shuffled afresh, so that a light query's samples spread over the
        whole round."""
        order = [q for q in self.queries.values() for _ in range(q.repeats)]
        for _ in range(rounds):
            rng.shuffle(order)
            self.run_round(order)

    @property
    def correct(self) -> bool:
        return all(self.queries[f["qid"]].known_defect for f in self.failures)


def setup_probe(workload, seed, workdir) -> float:
    """One set-up in a fresh interpreter; returns its set-up seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed), "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def machine(loadavg) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_start": loadavg,
            "pinned_env": PINNED_ENV}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "hopfbrace").glob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hopfbrace" / "__init__.py").is_file():
        print(f"error: no hopfbrace sources under {SRC}", file=sys.stderr)
        return 2
    # A terminated run still removes its files and its set-up probe.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    try:
        loadavg = os.getloadavg()
    except OSError:
        loadavg = None
    reference = workloads.load_reference(args.workload)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        start = perf_counter()
        queries = workloads.setup(args.workload, args.seed, workdir / "main",
                                  reference)
        setup_samples = [perf_counter() - start]
        import hopfbrace
        if SRC not in Path(hopfbrace.__file__).resolve().parents:
            print(f"error: hopfbrace imported from {hopfbrace.__file__}",
                  file=sys.stderr)
            return 2
        if not args.trace:
            setup_samples += [setup_probe(args.workload, args.seed,
                                          workdir / f"probe-{i}")
                              for i in range(1, SETUP_SAMPLES[args.workload])]
        log = Log(queries)
        rounds = max(MIN_ROUNDS, round(
            ROUNDS_PER_45_S[args.workload] * args.seconds / 45))
        log.run_rounds(max(1, rounds // 2) if args.trace else rounds,
                       random.Random(args.seed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        best = stats.best_of_rounds(log.samples)
        pass_s = sum(best.values())
        bests = list(best.values())
        detail = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine(loadavg), "src_hopfbrace_lines": src_lines(),
            "queries_per_pass": len(queries), "setup_s_samples": setup_samples,
            "rounds": log.rounds, "samples": log.samples,
            "pass_s": pass_s,
        }
        if stats.tail_count(len(bests), 0.9) >= stats.MIN_TAIL:
            detail["query_p90_s"] = stats.percentile(bests, 0.9)
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            order = sorted(queries, key=lambda q: q.qid)
            random.Random(f"{args.seed}:traced").shuffle(order)
            with tracer.installed():
                traced = dict(log.run_round(order, traced=True))
            metrics = tracer.metrics()
            metrics["host.calib_s"] = (
                statistics.median(r["calib_s"] for r in log.rounds), "s")
            metrics["trace.overhead_frac"] = (
                sum(traced.values()) / pass_s - 1, "1")
            detail["traced_samples"] = traced
        else:
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "query_p50_s": (statistics.median(bests), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        detail["fail_frac"] = len(log.failures) / log.attempted
        detail["failures"] = log.failures
        print(json.dumps({"detail": detail}))
        print(json.dumps({
            "correct": log.correct, "attempted": log.attempted,
            "failed": len(log.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
