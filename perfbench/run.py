"""Benchmark of the unihet CLI pipeline: impute -> analyze -> whatif.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The bench writes a seeded synthetic cohort, then runs the three subcommands
one after the other, again and again until ``--seconds`` have passed: a
closed loop with a single caller, one CLI process at a time.

``--trace 0`` runs the real CLI (``python -m unihet``) as subprocesses and
reports the end-to-end metrics: the median wall time and peak RSS of each
subcommand, and ``setup_s``, the median wall time of ``python -m unihet
--help``.  ``--trace 1`` calls ``unihet.cli.main`` in-process with the same
arguments, once untraced and once with every module boundary wrapped in a
span (see ``spans.py``), and reports the median per-module self times and
counts.  Every output is checked by ``oracle.py``; a call fails on a nonzero
exit, a traceback or an output the oracle rejects.

The last line of stdout is the result object; the line before it holds the
provenance, the sha256 of the input and of every distinct output, and the
raw samples.  A table of the metrics goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cohorts
import oracle
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

IDEALS = ("clustered:k=4", "uniform:k=5", "desired:preset=electronic")
PRESET = "electronic"
FLOOR = 55.0
FLOORS = tuple(float(f) for f in range(40, 90, 5))
MIN_STUDENTS = 15
MAX_MISSING_FRAC = 0.25
MIN_STEP_S = 1.0
STEPS = ("impute", "analyze", "whatif")


@dataclass(frozen=True)
class Workload:
    shape: cohorts.Shape
    interval_method: str = "mean_std"
    split_by_form: bool = False


WORKLOADS = {
    # ~100 k records over 300 universities: data loading and gap filling
    # dominate; order builds are small (n ~ 300).
    "records-heavy": Workload(cohorts.Shape(300, (300, 400), 0.08, 0.30, n_small=3, n_gappy=3)),
    # 700 universities of 16-24 students and no gaps: the n x n order
    # builds dominate; there is nothing to fill and loading is cheap.
    "universities-heavy": Workload(cohorts.Shape(700, (16, 24), 0.0, 0.30)),
    # 500 universities split into two per-form slices with min/max
    # intervals, which need the raw scores that aggregation keeps.
    "split-minmax": Workload(
        cohorts.Shape(500, (40, 60), 0.05, 0.50), interval_method="min_max", split_by_form=True
    ),
}


class BenchError(Exception):
    """The bench cannot produce a result (missing package, a silent span)."""


@dataclass
class Call:
    wall_s: float
    rss_mb: float | None
    returncode: int
    stderr: str


def pipeline(wl: Workload, work: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(step, argv) for the three subcommands, in the order they run."""
    method = ["--interval-method", wl.interval_method]
    filled = str(work / "filled.csv")
    analyze = ["analyze", "--input", filled, *(a for s in IDEALS for a in ("--ideal", s)),
               "--exclude-below", f"{FLOOR:g}", *method, "--out", str(work / "report.json")]
    if wl.split_by_form:
        analyze.append("--split-by-form")
    return [
        ("impute", ["impute", "--input", str(work / "input.csv"), "--out", filled,
                    "--seed", str(seed), "--min-students", str(MIN_STUDENTS),
                    "--max-missing-frac", str(MAX_MISSING_FRAC)]),
        ("analyze", analyze),
        ("whatif", ["whatif", "--input", filled, "--ideal", f"desired:preset={PRESET}",
                    "--floors", ",".join(f"{f:g}" for f in FLOORS), *method,
                    "--out", str(work / "whatif.json")]),
    ]


OUTPUTS = {"impute": "filled.csv", "analyze": "report.json", "whatif": "whatif.json"}


def run_subprocess(argv: list[str], work: Path) -> Call:
    """One CLI process, started by ``launch.py``, which times its whole life
    and reads its peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    launched = subprocess.run(
        [sys.executable, str(BENCH_DIR / "launch.py"), str(out_path), str(err_path),
         sys.executable, "-m", "unihet", *argv],
        capture_output=True, text=True, env=env, cwd=work, check=True,
    )
    m = json.loads(launched.stdout)
    return Call(m["wall_s"], m["rss_mb"], m["returncode"], err_path.read_text())


def run_inprocess(main: Callable, argv: list[str], tracer: spans.Tracer | None, name: str) -> Call:
    """``cli.main(argv)`` in this process, inside a top-level span when traced."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.call(name, main, argv) if tracer else main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the call failed; the traceback is its failure record
        rc = 1
        err.write(traceback.format_exc())
    return Call(time.perf_counter() - start, None, rc, err.getvalue())


class Checker:
    """Judges each call; oracle verdicts are cached by output digest."""

    def __init__(self, wl: Workload, work: Path) -> None:
        self.wl = wl
        self.work = work
        self.input_text = (work / "input.csv").read_text()
        self.verdicts: dict[tuple[str, str, str], list[str]] = {}
        self.digests: dict[str, list[str]] = {step: [] for step in STEPS}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def call_problems(self, call: Call) -> list[str]:
        problems = []
        if call.returncode != 0:
            problems.append(f"exit status {call.returncode}: {call.stderr.strip()[-300:]}")
        if "Traceback (most recent call last)" in call.stderr:
            problems.append("traceback on stderr")
        return problems

    def check(self, step: str, call: Call) -> None:
        problems = self.call_problems(call)
        if not problems:
            data = (self.work / OUTPUTS[step]).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if digest not in self.digests[step]:
                self.digests[step].append(digest)
            # analyze and whatif outputs are judged against this rep's filled CSV
            filled = b"" if step == "impute" else (self.work / OUTPUTS["impute"]).read_bytes()
            key = (step, digest, hashlib.sha256(filled).hexdigest())
            if key not in self.verdicts:
                self.verdicts[key] = self._oracle(step, data)
            problems = self.verdicts[key]
        self.count(problems)

    def _oracle(self, step: str, data: bytes) -> list[str]:
        wl = self.wl
        try:
            text = data.decode()
            if step == "impute":
                return oracle.check_impute(self.input_text, text, MIN_STUDENTS, MAX_MISSING_FRAC)
            _, rows = oracle.parse_students((self.work / "filled.csv").read_text())
            if step == "analyze":
                return oracle.check_analyze(rows, json.loads(text), wl.interval_method,
                                            wl.split_by_form, list(IDEALS), FLOOR, PRESET)
            return oracle.check_whatif(rows, json.loads(text), wl.interval_method,
                                       list(FLOORS), PRESET)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"{step}: malformed output ({type(exc).__name__}: {exc})"]


def _import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import unihet.cli

    if not Path(unihet.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported unihet from {unihet.cli.__file__}, not from {SRC}")
    return unihet.cli


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


Samples = dict[str, list[float]]
AfterStep = Callable[[str, Path], None] | None


def _add(samples: Samples, metric: str, value: float) -> None:
    samples.setdefault(metric, []).append(value)


def _cli_rep(steps, work: Path, checker: Checker, samples: Samples, after_step: AfterStep) -> None:
    """One pass of set-up, impute, analyze and whatif as CLI processes.

    A call shorter than MIN_STEP_S repeats within the pass, so that a short
    step gets as many samples as the run has time for.  The set-up samples
    are spread over the run like the others, so that one slow stretch of the
    machine does not set their median.
    """
    for step, argv in [("setup", ["--help"]), *steps]:
        spent = 0.0
        while spent < MIN_STEP_S:
            call = run_subprocess(argv, work)
            spent += call.wall_s
            _add(samples, f"{step}_s", call.wall_s)
            if step == "setup":
                checker.count(checker.call_problems(call))
                continue
            if after_step:
                after_step(step, work)
            checker.check(step, call)
            _add(samples, f"{step}_rss_mb", call.rss_mb)


def _traced_rep(
    rep: int, steps, work: Path, checker: Checker, samples: Samples, after_step: AfterStep
) -> None:
    """One untraced and one traced in-process pass; per-module samples."""
    main = _import_cli().main
    tracer = spans.Tracer()
    names = [t[0] for t in spans.TARGETS] + [f"cli.{s}" for s in STEPS]
    # the two passes swap order every rep, so that the first pass's warm-up
    # does not bias the overhead one way
    first_traced = rep % 2 == 1
    wall = {True: 0.0, False: 0.0}
    for traced in (first_traced, not first_traced):
        if traced:
            tracer.install()
        try:
            for step, argv in steps:
                call = run_inprocess(main, argv, tracer if traced else None, f"cli.{step}")
                if after_step and traced:
                    after_step(step, work)
                checker.check(step, call)
                wall[traced] += call.wall_s
        finally:
            tracer.uninstall()
    self_time, calls = tracer.summary()
    silent = [n for n in names if not calls.get(n)]
    if silent:
        raise BenchError("traced spans recorded no calls: " + ", ".join(silent))
    for name in names:
        _add(samples, f"{name}.s", self_time[name])
    for name in ("orders.build_interval_order", "orders.hamming"):
        _add(samples, f"{name}.calls", calls[name])
    _add(samples, "ideals.build.calls",
         sum(calls[f"ideals.{k}.build"] for k in ("clustered", "uniform", "desired")))
    for metric, value in tracer.counts.items():
        _add(samples, metric, value)
    cli_total = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    inner = sum(t for n, t in self_time.items() if not n.startswith("cli."))
    _add(samples, "trace.coverage", inner / cli_total)
    _add(samples, "trace.overhead", wall[True] / wall[False] - 1.0)


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool, work: Path,
    after_step: AfterStep = None,
) -> tuple[dict, dict]:
    """Run the loop; return the result object and the record behind it.

    ``after_step(step, work)`` runs after each CLI call and before its output
    is checked; the self-test uses it to corrupt an output.
    """
    if not (SRC / "unihet" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'unihet'}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_sha = cohorts.write(wl.shape, seed, str(work / "input.csv"))
    checker = Checker(wl, work)
    steps = pipeline(wl, work, seed)
    samples: Samples = {}
    if trace:
        # One untimed pass first: the first calls in a fresh process pay
        # one-off costs that neither timed pass should carry.
        main = _import_cli().main
        for step, argv in steps:
            checker.check(step, run_inprocess(main, argv, None, f"cli.{step}"))
    deadline = time.perf_counter() + seconds
    reps: list[float] = []
    for rep in itertools.count():
        rep_start = time.perf_counter()
        if trace:
            _traced_rep(rep, steps, work, checker, samples, after_step)
        else:
            _cli_rep(steps, work, checker, samples, after_step)
        # start another rep only if a typical one still ends inside the window
        reps.append(time.perf_counter() - rep_start)
        if time.perf_counter() + _median(reps) > deadline:
            break

    metrics = {name: {"value": _median(vals), "unit": unit_of(name)} for name, vals in samples.items()}
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {
        "provenance": provenance(seed),
        "trace": trace,
        "seconds": seconds,
        "reps": len(reps),
        "failed_frac": checker.failed / checker.attempted,
        "problems": checker.problems[:20],
        "input_sha256": input_sha,
        "output_sha256": checker.digests,
        "samples": samples,
    }
    return result, record


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.startswith("trace."):
        return "frac"
    return "count"


def provenance(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    init = (SRC / "unihet" / "__init__.py").read_text()
    version = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    return {
        "seed": seed,
        "git_commit": commit,
        "package_version": version.group(1) if version else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "unihet").rglob("*.py")),
    }


def selected_metrics(result: dict, trace: bool) -> dict:
    """Keep exactly the metrics BENCHMARK.json names for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {**result, "metrics": {m: result["metrics"][m] for m in wanted}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = BENCH_DIR / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), work)
        result = selected_metrics(result, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in ("input.csv", "filled.csv", "report.json", "whatif.json"):
            (work / name).unlink(missing_ok=True)
    record["workload"] = args.workload
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_frac':40s} {record['failed_frac']:14.6g} frac "
          f"({result['failed']} of {result['attempted']})", file=sys.stderr)
    for problem in record["problems"]:
        print(f"rejected: {problem}", file=sys.stderr)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
