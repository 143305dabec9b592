"""Run the benchmark over several workloads and seeds and summarize it.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 40 [--trace 1] [WORKLOAD ...]

Each (workload, seed) is one ``run.py`` process.  For every metric the table
gives the median over the seeds, the spread (distance between the first and
third quartile as a share of the median, the figure the bounds in
BENCHMARK.json are set against) and the unit.  The last row of each
workload is ``failed_frac``, failed over attempted calls.  With no workload
named, all of them run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOADS  # noqa: E402


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=", ".join(sorted(WORKLOADS)))
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    status = 0
    for workload in args.workloads or sorted(WORKLOADS):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=BENCH_DIR.parent,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            results.append(json.loads(proc.stdout.splitlines()[-1]))
            print(json.dumps({"workload": workload, "seed": seed, **results[-1]}), file=sys.stderr)
        if not results:
            continue
        print(f"\n{workload} ({len(results)} seeds, {args.seconds} s each)")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = float("nan")
            if len(values) > 1 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            print(f"  {name:36s} {median:12.6g} {first['unit']:6s} spread {spread:7.4f}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {'failed_frac':36s} {failed / attempted:12.6g} {'frac':6s} ({failed} of {attempted})")
    return status


if __name__ == "__main__":
    sys.exit(main())
