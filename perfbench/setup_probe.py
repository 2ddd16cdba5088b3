"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload ladder --seed 1 --workdir DIR

Prints {"setup_s": seconds}, measured from before ``import hopfbrace``
to the end of set-up.  run.py starts it; it writes only under --workdir.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    reference = workloads.load_reference(args.workload)
    start = perf_counter()
    workloads.setup(args.workload, args.seed, args.workdir, reference)
    print(json.dumps({"setup_s": perf_counter() - start}))


if __name__ == "__main__":
    main()
