"""Score gaps in a dataset, and how they are handled.

Some admitted students have no usable entrance score (olympiad winners and
some preferential-admission categories).  Universities where the problem is
too large to repair are excluded outright; in the rest, the gaps are filled
with seeded uniform draws so that downstream aggregation sees a complete
score list.

Olympiad admissions are assumed to sit at the top of their cohort, so their
fills come from a band around the highest observed score of the same study
form.  All other gaps are filled from an open band of one standard deviation
around the form mean.  Draws never leave the legal score range (0, 100].

Every function here works on a :class:`~unihet.data.Dataset`'s columns: the
counts are ``np.bincount`` over university codes, and filling groups the
rows by (university, form) with one stable sort and hands the observed
scores of each group with a gap to one :func:`form_stats` call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import BASES, Dataset, _group_rows
from .orders import _mean_square_deviation

__all__ = [
    "FormStats",
    "ExclusionReport",
    "MissingnessSummary",
    "apply_exclusion",
    "form_stats",
    "fill_missing",
    "missingness_summary",
]


@dataclass(frozen=True)
class FormStats:
    """Observed-score statistics of one study form at one university.

    ``mean`` and ``variance`` are computed over the observed scores only;
    ``variance`` is the mean of the squared deviations from ``mean``
    (population form).  Each squared deviation is a float; their sum is
    exact and rounded once, so the variance has the same bits as
    ``statistics.pvariance(scores, mu=mean)``.  The two fill bands are
    stored unclipped: ``(fill_lo, fill_hi)`` is the open
    one-standard-deviation band for ordinary gaps, ``[olympiad_lo,
    olympiad_hi]`` the closed band for olympiad admissions, whose upper end
    is capped at 100.
    """

    mean: float
    variance: float
    max_obs: float

    @property
    def fill_lo(self) -> float:
        return self.mean - math.sqrt(self.variance)

    @property
    def fill_hi(self) -> float:
        return self.mean + math.sqrt(self.variance)

    @property
    def olympiad_lo(self) -> float:
        return 0.9 * self.max_obs

    @property
    def olympiad_hi(self) -> float:
        return min(1.1 * self.max_obs, 100.0)


def form_stats(observed: Sequence[float]) -> FormStats:
    """Statistics of one (university, form) group from its observed scores."""
    xs = np.asarray(observed, dtype=float)
    if not len(xs):
        raise ValueError("at least one observed score is required")
    mean = math.fsum(xs.tolist()) / len(xs)
    return FormStats(mean, _mean_square_deviation(xs, mean), float(xs.max()))


def _per_university(dataset: Dataset) -> tuple[list[int], list[int]]:
    """Record count and missing-score count of each university, by code."""
    codes, n = dataset.university_codes, len(dataset.universities())
    gap_codes = codes[np.isnan(dataset.scores)]
    return np.bincount(codes, minlength=n).tolist(), np.bincount(gap_codes, minlength=n).tolist()


@dataclass(frozen=True)
class ExclusionReport:
    """Which universities were dropped before imputation, and why."""

    excluded_universities: tuple[str, ...]
    excluded_student_count: int
    n_excluded: int
    reasons: dict[str, tuple[str, ...]]


def apply_exclusion(
    dataset: Dataset,
    min_students: int = 15,
    max_missing_frac: float = 0.25,
) -> tuple[Dataset, ExclusionReport]:
    """Drop universities that are too small or have too many score gaps.

    A university goes when its record count is below ``min_students`` or
    when its share of missing scores reaches ``max_missing_frac`` (the
    comparison is >=).  Reasons per dropped university are reported as
    ``"too_few_students"`` and ``"too_many_gaps"``.  The kept records stay
    in their order.
    """
    if min_students < 1:
        raise ValueError(f"min_students must be at least 1, got {min_students}")
    if not 0.0 < max_missing_frac <= 1.0:
        raise ValueError(f"max_missing_frac must lie in (0, 1], got {max_missing_frac}")
    counts, gaps = _per_university(dataset)
    reasons: dict[str, tuple[str, ...]] = {}
    dropped = []
    for u, count, gap in zip(dataset.universities(), counts, gaps):
        why = []
        if count < min_students:
            why.append("too_few_students")
        if gap >= max_missing_frac * count:
            why.append("too_many_gaps")
        if why:
            reasons[u] = tuple(why)
        dropped.append(bool(why))
    report = ExclusionReport(
        excluded_universities=tuple(reasons),
        excluded_student_count=sum(c for c, drop in zip(counts, dropped) if drop),
        n_excluded=len(reasons),
        reasons=reasons,
    )
    kept_rows = ~np.array(dropped, bool)[dataset.university_codes]
    return dataset._select(kept_rows), report


def _draw_fill(rng: random.Random, stats: FormStats, olympiad: bool) -> float:
    if olympiad:
        return rng.uniform(stats.olympiad_lo, stats.olympiad_hi)
    lo, hi = stats.fill_lo, stats.fill_hi
    if math.nextafter(lo, math.inf) >= hi:
        return stats.mean  # no float lies strictly inside (lo, hi)
    while True:
        x = rng.uniform(max(lo, 0.0), min(hi, 100.0))
        if lo < x < hi and 0.0 < x <= 100.0:
            return x


def fill_missing(dataset: Dataset, seed: int) -> Dataset:
    """Fill every score gap with a seeded uniform draw.

    Olympiad gaps are drawn from [0.9 * max, min(1.1 * max, 100)] where max
    is the highest observed score of the same university and form; other
    gaps from the open band (mean - sd, mean + sd) of their form, redrawing
    on exact endpoint hits.  When no float lies strictly inside that band
    (all observed scores of the form are equal, or the standard deviation
    is below half an ulp of the mean) the gap takes the mean directly.  The
    result keeps the input order, and marks each filled score imputed.

    The rows are grouped by (university, form) with one stable sort and the
    gaps counted per group; groups without an observed score are all named
    in one error before any draw.  Each other group with a gap hands its
    observed scores to one :func:`form_stats` call.  The draw order is a
    contract: gaps draw in (university, form, position) order, so shuffling
    complete records around does not change which value a given gap receives.
    """
    scores = dataset.scores
    gaps = np.isnan(scores)
    keys, order, groups, bounds = _group_rows(dataset)
    n_gaps = np.bincount(keys[gaps], minlength=len(groups)).tolist()
    # draw order: university identifier, then form, both as strings
    needy = sorted((key for key, n in enumerate(n_gaps) if n), key=groups.__getitem__)
    starved = [  # university/form of each group without an observed score
        "/".join(groups[key]) for key in needy if n_gaps[key] == bounds[key + 1] - bounds[key]
    ]
    if starved:
        raise ValueError("cannot fill gaps without any observed score in: " + ", ".join(starved))
    rng = random.Random(seed)
    olympiad = dataset.basis_codes == BASES.index("olympiad")
    filled = scores.copy()
    for key in needy:
        rows = order[bounds[key]:bounds[key + 1]]
        gap = gaps[rows]
        stats = form_stats(scores[rows[~gap]])
        rows = rows[gap]
        filled[rows] = [_draw_fill(rng, stats, o) for o in olympiad[rows].tolist()]
    return dataset._with_scores(filled, dataset.imputed | gaps)


@dataclass(frozen=True)
class MissingnessSummary:
    """Share of missing scores overall and per university."""

    n_total: int
    n_missing: int
    overall: float
    per_university: dict[str, float]
    high: bool


def missingness_summary(dataset: Dataset) -> MissingnessSummary:
    """Fractions of missing scores; ``high`` when the overall share exceeds 5%."""
    totals, gaps = _per_university(dataset)
    n_total = dataset.n_records
    n_missing = sum(gaps)
    overall = n_missing / n_total if n_total else 0.0
    return MissingnessSummary(
        n_total=n_total,
        n_missing=n_missing,
        overall=overall,
        per_university={u: g / t for u, g, t in zip(dataset.universities(), gaps, totals)},
        high=overall > 0.05,
    )
