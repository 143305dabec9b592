"""Toy-size self-test of the bench.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that a run emits every metric BENCHMARK.json names, with its unit,
in both modes; that a fill moved outside its band and a flipped Hamming
distance are caught by the oracle and counted as failed; that a traced span
with no calls fails the run; and that the cohort generator still gives the
same bytes for the same seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cohorts  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TOY = run.Workload(cohorts.Shape(12, (20, 30), 0.1, 0.4, n_small=1, n_gappy=1))
TOY_SPLIT = run.Workload(cohorts.Shape(12, (20, 30), 0.1, 0.5), "min_max", True)
SEED = 3
# sha256 of generate(TOY.shape, SEED): a change here shifts every workload's input
TOY_SHA256 = "65f14fe09f0c1f473bb20503685ebc620d72200460cb646c8e404950e864ab89"


def _measure(wl: run.Workload, name: str, trace: bool = False, after_step=None):
    return run.measure(wl, SEED, 0, trace, run.BENCH_DIR / ".work" / f"selftest-{name}", after_step)


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = _measure(TOY, section, trace)
            result = run.selected_metrics(result, trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], section)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(
                {m: v["unit"] for m, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[section]},
            )

    def test_split_min_max_path_passes_the_oracle(self):
        result, record = _measure(TOY_SPLIT, "split")
        self.assertTrue(result["correct"], record["problems"])


class CorruptionTest(unittest.TestCase):
    def _failed_run(self, corrupt_step: str, corrupt) -> dict:
        def after_step(step: str, work: Path) -> None:
            if step == corrupt_step:
                corrupt(work / run.OUTPUTS[step])

        result, record = _measure(TOY, f"corrupt-{corrupt_step}", after_step=after_step)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        return record

    def test_fill_outside_its_band_is_counted_failed(self):
        def corrupt(path: Path) -> None:
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            row = next(r for r in rows[1:] if r[4] == "1")
            row[3] = "0.5"  # every band in the toy cohort lies far above this
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)

        record = self._failed_run("impute", corrupt)
        self.assertTrue(any("outside" in p for p in record["problems"]), record["problems"])

    def test_flipped_hamming_is_counted_failed(self):
        def corrupt(path: Path) -> None:
            report = json.loads(path.read_text())
            n = report["n_universities"]["all"]
            outcome = report["per_ideal"][0]["by_form"]["all"]
            outcome["hamming"] += 1 / (n * (n - 1))  # one more differing cell
            path.write_text(json.dumps(report))

        record = self._failed_run("analyze", corrupt)
        self.assertTrue(any("hamming" in p for p in record["problems"]), record["problems"])


class TracingTest(unittest.TestCase):
    def test_span_without_calls_fails_the_traced_run(self):
        never_called = ("orders.exclude_below", "unihet.orders", "exclude_below", {})
        saved = spans.TARGETS
        spans.TARGETS = saved + (never_called,)
        try:
            with self.assertRaisesRegex(run.BenchError, "orders.exclude_below"):
                _measure(TOY, "silent-span", trace=True)
        finally:
            spans.TARGETS = saved


class CohortTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        data = cohorts.generate(TOY.shape, SEED)
        self.assertEqual(data, cohorts.generate(TOY.shape, SEED))
        self.assertNotEqual(data, cohorts.generate(TOY.shape, SEED + 1))
        self.assertEqual(hashlib.sha256(data.encode()).hexdigest(), TOY_SHA256)


if __name__ == "__main__":
    unittest.main()
