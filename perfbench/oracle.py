"""Checks on the CLI's output files that do not use the package.

Everything is recomputed from the bench's own reading of the CSV files with
the stdlib and numpy.  The semantics mirrored here are the documented ones:

* exclusion drops a university with fewer than ``min_students`` records or
  whose gap count reaches ``max_missing_frac`` of its records;
* an ordinary fill lies in the open band (mean - sd, mean + sd) of the
  observed scores of its university and form (population sd), an olympiad
  fill in [0.9 * max, min(1.1 * max, 100)], and a form whose observed scores
  are all equal fills with that value;
* a university's mean is ``math.fsum(scores) / n`` (as ``statistics.fmean``)
  and its std the population std;
* i is above j in an interval order exactly when lo_i > hi_j, and the
  Hamming distance is the share of the n(n-1) ordered pairs where two orders
  disagree.

Each check returns a list of problems; an empty list accepts the output.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass

import numpy as np

# Band checks allow this much slack so that a change to how the package
# rounds a mean or a variance in the last bits is not taken for a wrong fill.
_BAND_TOL = 1e-7
_HAMMING_TOL = 1e-12
_STATS_TOL = 1e-9

TIER_BREAKS = {"electronic": ((55.0, "upper"), (70.0, "lower"))}


def parse_students(text: str) -> tuple[list[str], list[list[str]]]:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    return rows[0], rows[1:]


def _band(scores: list[float]) -> tuple[float, float, float, float]:
    mean = math.fsum(scores) / len(scores)
    sd = math.sqrt(statistics.pvariance(scores, mu=mean))
    return mean, sd, 0.9 * max(scores), min(1.1 * max(scores), 100.0)


def excluded_universities(
    rows: list[list[str]], min_students: int, max_missing_frac: float
) -> set[str]:
    counts: dict[str, int] = {}
    gaps: dict[str, int] = {}
    for uid, _, _, score in rows:
        counts[uid] = counts.get(uid, 0) + 1
        gaps[uid] = gaps.get(uid, 0) + (score == "")
    return {
        u for u, n in counts.items()
        if n < min_students or gaps[u] >= max_missing_frac * n
    }


def check_impute(
    input_text: str, output_text: str, min_students: int, max_missing_frac: float
) -> list[str]:
    _, rows = parse_students(input_text)
    header, out = parse_students(output_text)
    if header != ["university_id", "form", "basis", "score", "imputed"]:
        return [f"impute: unexpected header {header}"]
    gone = excluded_universities(rows, min_students, max_missing_frac)
    kept = [r for r in rows if r[0] not in gone]
    if len(out) != len(kept):
        return [f"impute: {len(out)} rows, expected {len(kept)} after exclusion"]
    observed: dict[tuple[str, str], list[float]] = {}
    for uid, form, _, score in kept:
        if score:
            observed.setdefault((uid, form), []).append(float(score))
    bands = {key: _band(scores) for key, scores in observed.items()}
    problems = []
    n_gaps = n_imputed = 0
    for i, (want, got) in enumerate(zip(kept, out), start=2):
        if got[:3] != want[:3]:
            problems.append(f"impute line {i}: row {got[:3]} != input {want[:3]}")
            continue
        if got[3] == "":
            problems.append(f"impute line {i}: score left blank")
            continue
        value = float(got[3])
        n_imputed += got[4] == "1"
        if want[3]:
            if got[4] != "0" or value != float(want[3]):
                problems.append(f"impute line {i}: observed score changed")
            continue
        n_gaps += 1
        if got[4] != "1":
            problems.append(f"impute line {i}: fill not flagged imputed")
        mean, sd, oly_lo, oly_hi = bands[(want[0], want[1])]
        if want[2] == "olympiad":
            lo, hi = oly_lo, oly_hi
        elif sd == 0.0:
            lo = hi = mean
        else:
            lo, hi = mean - sd, mean + sd
        if not (lo - _BAND_TOL <= value <= hi + _BAND_TOL and 0.0 < value <= 100.0):
            problems.append(f"impute line {i}: fill {value} outside [{lo}, {hi}]")
    if n_imputed != n_gaps:
        problems.append(f"impute: {n_imputed} rows flagged imputed, {n_gaps} gaps kept")
    return problems


# --------------------------------------------------------------------------
# analyze and whatif


@dataclass(frozen=True)
class Slice:
    """Per-university mean and interval of one analysis slice, in report order."""

    means: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, scores: list[list[float]], method: str) -> "Slice":
        means = np.array([math.fsum(s) / len(s) for s in scores])
        if method == "mean_std":
            stds = np.array([statistics.pstdev(s) for s in scores])
            return cls(means, means - stds, means + stds)
        return cls(means, np.array([min(s) for s in scores]), np.array([max(s) for s in scores]))

    def __len__(self) -> int:
        return len(self.means)

    def subset(self, keep: np.ndarray) -> "Slice":
        return Slice(self.means[keep], self.lo[keep], self.hi[keep])


def slices(rows: list[list[str]], method: str, split: bool) -> dict[str, Slice]:
    """Slices keyed as the report keys them: "all", or by form when split.

    Universities keep their first-appearance order in every slice.
    """
    order = {uid: None for uid, *_ in rows}
    by_key: dict[str, dict[str, list[float]]] = {}
    for uid, form, _, score, *_ in rows:
        by_key.setdefault(form if split else "all", {}).setdefault(uid, []).append(float(score))
    keys = ("state_funded", "tuition_based") if split else ("all",)
    return {
        key: Slice.of([by_key[key][u] for u in order if u in by_key[key]], method)
        for key in keys if len(by_key.get(key, ())) >= 2
    }


def _order(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo[:, None] > hi[None, :]


def hamming(a: np.ndarray, b: np.ndarray) -> float:
    n = a.shape[0]
    return int(np.count_nonzero(a != b)) / (n * (n - 1))


def tiers(means: np.ndarray, preset: str) -> np.ndarray:
    g = np.zeros(len(means), dtype=np.int64)
    for brk, rule in TIER_BREAKS[preset]:
        g += (means >= brk) if rule == "upper" else (means > brk)
    return g


def uniform_bins(means: np.ndarray, k: int) -> np.ndarray:
    """Equal-width bins [edge_i, edge_i+1), the last one closed on the right."""
    lo, hi = float(means.min()), float(means.max())
    w = (hi - lo) / k
    edges = [lo + i * w for i in range(k)]
    out = np.array([max(i for i, e in enumerate(edges) if e <= x) for x in means.tolist()])
    out[means == hi] = k - 1
    return out


def kmeans_wcss(values: np.ndarray, k: int) -> float:
    """Optimal 1-D k-means WCSS by dynamic programming over sorted values."""
    v = np.sort(values)
    n = len(v)
    pre = np.concatenate([[0.0], np.cumsum(v)])
    pre2 = np.concatenate([[0.0], np.cumsum(v * v)])
    i, j = np.triu_indices(n)
    cost = np.full((n, n), np.inf)
    s = pre[j + 1] - pre[i]
    cost[i, j] = np.maximum(pre2[j + 1] - pre2[i] - s * s / (j - i + 1), 0.0)
    best = cost[0].copy()
    for _ in range(1, k):
        prev = np.concatenate([[np.inf], best[:-1]])  # prev[i] = best[i - 1]
        best = (prev[:, None] + cost).min(axis=0)
    return float(best[-1])


def _close(a: float | None, b: float) -> bool:
    return a is not None and abs(a - b) <= _STATS_TOL * max(1.0, abs(b))


def _check_ideal(spec: str, sl: Slice, real: np.ndarray, outcome: dict) -> list[str]:
    kind, _, param = spec.partition(":")
    rows = outcome["group_table"]
    counts = [row["count"] for row in rows]
    if kind == "clustered":
        k = int(param.split("=")[1])
        if len(counts) != k or sum(counts) != len(sl):
            return [f"{spec}: cluster sizes {counts} for {len(sl)} universities"]
        order = np.argsort(sl.means, kind="stable")
        lo = np.empty(len(sl))
        hi = np.empty(len(sl))
        wcss = 0.0
        start = 0
        problems = []
        for c, row in zip(counts, rows):
            members = order[start:start + c]
            start += c
            vals = sl.means[members]
            center = math.fsum(vals.tolist()) / c
            spread = statistics.stdev(vals.tolist()) if c > 1 else 0.0
            if not (_close(row["mean"], center) and _close(row["std"], spread)):
                problems.append(f"{spec}: {row['desc']} stats disagree with its members")
            wcss += float(((vals - center) ** 2).sum())
            lo[members], hi[members] = center - spread, center + spread
        optimum = kmeans_wcss(sl.means, k)
        if wcss > optimum * (1 + _STATS_TOL) + _STATS_TOL:
            problems.append(f"{spec}: WCSS {wcss} above the optimum {optimum}")
        ideal = _order(lo, hi)
    else:
        value = param.split("=")[1]
        groups = uniform_bins(sl.means, int(value)) if kind == "uniform" else tiers(sl.means, value)
        want = np.bincount(groups, minlength=len(counts)).tolist()
        problems = [] if want == counts else [f"{spec}: group sizes {counts}, expected {want}"]
        ideal = _order(groups, groups)
    h = hamming(real, ideal)
    if abs(outcome["hamming"] - h) > _HAMMING_TOL:
        problems.append(f"{spec}: hamming {outcome['hamming']}, expected {h}")
    return problems


def _after_floor(sl: Slice, floor: float, preset: str) -> tuple[int, float | None]:
    """How many universities a floor keeps, and their distance to the tier scheme."""
    kept = sl.subset(sl.means >= floor)
    if len(kept) < 2:
        return len(kept), None
    g = tiers(kept.means, preset)
    return len(kept), hamming(_order(kept.lo, kept.hi), _order(g, g))


def check_analyze(
    rows: list[list[str]], report: dict, method: str, split: bool,
    specs: list[str], floor: float, preset: str,
) -> list[str]:
    sls = slices(rows, method, split)
    want_n = {key: len(sl) for key, sl in sls.items()}
    if report.get("n_universities") != want_n:
        return [f"analyze: slice counts {report.get('n_universities')}, expected {want_n}"]
    got_specs = [r["spec"] for r in report["per_ideal"]]
    if got_specs != specs:
        return [f"analyze: ideals {got_specs}, expected {specs}"]
    problems = []
    for key, sl in sls.items():
        real = _order(sl.lo, sl.hi)
        for result in report["per_ideal"]:
            problems += [
                f"[{key}] {p}" for p in _check_ideal(result["spec"], sl, real, result["by_form"][key])
            ]
        n_kept, h = _after_floor(sl, floor, preset)
        got = report["exclusion"]["by_form"][key]
        if (got["n_removed"], got["n_kept"]) != (len(sl) - n_kept, n_kept):
            problems.append(f"[{key}] exclusion removed {got['n_removed']}, expected {len(sl) - n_kept}")
        elif h is None or abs(got["hamming_after"] - h) > _HAMMING_TOL:
            problems.append(f"[{key}] exclusion hamming {got['hamming_after']}, expected {h}")
    return problems


def check_whatif(
    rows: list[list[str]], sweep: dict, method: str, floors: list[float], preset: str
) -> list[str]:
    sl = slices(rows, method, split=False)["all"]
    got = sweep["rows"]
    if [r["floor"] for r in got] != sorted(floors):
        return [f"whatif: floors {[r['floor'] for r in got]}, expected {sorted(floors)}"]
    problems = []
    for row in got:
        n_kept, h = _after_floor(sl, row["floor"], preset)
        if row["n_removed"] != len(sl) - n_kept or row["feasible"] != (h is not None):
            problems.append(f"whatif floor {row['floor']}: removed {row['n_removed']} "
                            f"(feasible {row['feasible']}), expected {len(sl) - n_kept} "
                            f"({h is not None})")
        elif h is not None and (row["hamming"] is None or abs(row["hamming"] - h) > _HAMMING_TOL):
            problems.append(f"whatif floor {row['floor']}: hamming {row['hamming']}, expected {h}")
    return problems
