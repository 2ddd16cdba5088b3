"""Record the reference summaries that every benchmark query is checked
against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted: it overwrites
reference/<workload>.json with the summaries the current sources give.
Every workload is recorded under two seeds, and the two recordings must
agree, because the summaries do not depend on the relabelling.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
import workloads  # noqa: E402

SEEDS = (0, 1)


def record(workload, seed, workdir):
    reference = {}
    if workload == "ladder":
        for name, H, perm in workloads.relabelled_hopf(
                workloads.ladder_braces(workloads.SERIES_BRACES), seed):
            for q in workloads.series_queries(name, H, perm, seed, [], []):
                reference[q.qid] = q.summarize(q.run())
    queries = workloads.setup(workload, seed, workdir, reference)
    return {q.qid: q.summarize(q.run()) for q in queries
            if q.expected is None or q.qid in reference}


def main():
    workdir = HERE.parent / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS:
            first, second = (record(workload, seed, workdir / str(seed))
                             for seed in SEEDS)
            if first != second:
                diff = sorted(k for k in first if first[k] != second.get(k))
                sys.exit(f"{workload}: summaries depend on the seed: {diff}")
            path = workloads.REFERENCE_DIR / f"{workload}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(first, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{workload}: {len(first)} summaries -> {path.name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
