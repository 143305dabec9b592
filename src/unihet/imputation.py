"""Student-level records with score gaps, and how the gaps are handled.

Some admitted students have no usable entrance score (olympiad winners and
some preferential-admission categories).  Universities where the problem is
too large to repair are excluded outright; in the rest, the gaps are filled
with seeded uniform draws so that downstream aggregation sees a complete
score list.

Olympiad admissions are assumed to sit at the top of their cohort, so their
fills come from a band around the highest observed score of the same study
form.  All other gaps are filled from an open band of one standard deviation
around the form mean.  Draws never leave the legal score range (0, 100].
"""

from __future__ import annotations

import math
import random
import statistics
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .orders import _mean_square_deviation

__all__ = [
    "FORMS",
    "BASES",
    "StudentRecord",
    "FormStats",
    "ExclusionReport",
    "MissingnessSummary",
    "apply_exclusion",
    "form_stats",
    "fill_missing",
    "missingness_summary",
]

FORMS = ("state_funded", "tuition_based")
BASES = ("competition", "olympiad", "out_of_competition", "targeted", "benefit", "other")

# 1.1 * max_obs stays under 100 only while max_obs <= 100/1.1
_OLYMPIAD_CAP_THRESHOLD = 100.0 / 1.1


@dataclass(frozen=True, slots=True)
class StudentRecord:
    """One admitted student: university, study form, admission basis, score.

    ``university`` is non-empty and contains no ``/``, which separates
    university and form in per-form labels.  ``score`` is None when unknown;
    a score of 0 is treated as unknown too.
    Known scores lie in (0, 100].  ``imputed`` marks values produced by
    :func:`fill_missing` rather than observed.
    """

    university: str
    form: str
    basis: str
    score: float | None = None
    imputed: bool = False

    def __post_init__(self) -> None:
        if not self.university:
            raise ValueError("university identifier must be non-empty")
        if "/" in self.university:
            raise ValueError(f"university identifier {self.university!r} must not contain '/'")
        if self.form not in FORMS:
            raise ValueError(f"unknown study form {self.form!r}; expected one of {FORMS}")
        if self.basis not in BASES:
            raise ValueError(f"unknown admission basis {self.basis!r}; expected one of {BASES}")
        if self.score is not None:
            score = float(self.score)
            if score == 0.0:
                object.__setattr__(self, "score", None)
                return
            if not math.isfinite(score) or not 0.0 < score <= 100.0:
                raise ValueError(f"score must lie in (0, 100], got {self.score}")
            object.__setattr__(self, "score", score)

    @property
    def missing(self) -> bool:
        return self.score is None


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

    university: str
    form: str
    count: int
    missing: int
    mean: float
    variance: float
    min_obs: float
    max_obs: float

    def __post_init__(self) -> None:
        if self.count < 1 or not 0 <= self.missing < self.count:
            raise ValueError(
                f"{self.university}/{self.form}: at least one observed score is required"
            )

    @property
    def n_observed(self) -> int:
        return self.count - self.missing

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

    @property
    def olympiad_capped(self) -> bool:
        return self.max_obs > _OLYMPIAD_CAP_THRESHOLD


def form_stats(records: Sequence[StudentRecord], form: str) -> FormStats:
    """Statistics of one study form within a single university's records."""
    if form not in FORMS:
        raise ValueError(f"unknown study form {form!r}; expected one of {FORMS}")
    universities = {r.university for r in records}
    if len(universities) != 1:
        raise ValueError(f"records must belong to a single university, got {sorted(universities)}")
    (university,) = universities
    sub = [r for r in records if r.form == form]
    if not sub:
        raise ValueError(f"{university}: no records with form {form!r}")
    observed = [r.score for r in sub if r.score is not None]
    if not observed:
        raise ValueError(f"{university}/{form}: every score is missing")
    mean = statistics.fmean(observed)
    variance = _mean_square_deviation(observed, mean)
    return FormStats(
        university=university,
        form=form,
        count=len(sub),
        missing=len(sub) - len(observed),
        mean=mean,
        variance=variance,
        min_obs=min(observed),
        max_obs=max(observed),
    )


@dataclass(frozen=True)
class ExclusionReport:
    """Which universities were dropped before imputation, and why."""

    excluded_universities: tuple[str, ...]
    excluded_student_count: int
    n_excluded: int
    reasons: dict[str, tuple[str, ...]]


def apply_exclusion(
    records: Sequence[StudentRecord],
    min_students: int = 15,
    max_missing_frac: float = 0.25,
) -> tuple[list[StudentRecord], ExclusionReport]:
    """Drop universities that are too small or have too many score gaps.

    A university goes when its record count is below ``min_students`` or
    when its share of missing scores reaches ``max_missing_frac`` (the
    comparison is >=).  Reasons per dropped university are reported as
    ``"too_few_students"`` and ``"too_many_gaps"``.
    """
    if min_students < 1:
        raise ValueError(f"min_students must be at least 1, got {min_students}")
    if not 0.0 < max_missing_frac <= 1.0:
        raise ValueError(f"max_missing_frac must lie in (0, 1], got {max_missing_frac}")
    order: list[str] = []
    counts: dict[str, int] = {}
    gaps: dict[str, int] = {}
    for r in records:
        if r.university not in counts:
            order.append(r.university)
            counts[r.university] = 0
            gaps[r.university] = 0
        counts[r.university] += 1
        if r.missing:
            gaps[r.university] += 1
    reasons: dict[str, tuple[str, ...]] = {}
    for u in order:
        why = []
        if counts[u] < min_students:
            why.append("too_few_students")
        if gaps[u] >= max_missing_frac * counts[u]:
            why.append("too_many_gaps")
        if why:
            reasons[u] = tuple(why)
    excluded = tuple(u for u in order if u in reasons)
    kept = [r for r in records if r.university not in reasons]
    report = ExclusionReport(
        excluded_universities=excluded,
        excluded_student_count=sum(counts[u] for u in excluded),
        n_excluded=len(excluded),
        reasons=reasons,
    )
    return kept, report


def _draw_fill(rng: random.Random, record: StudentRecord, stats: FormStats) -> float:
    if record.basis == "olympiad":
        return rng.uniform(stats.olympiad_lo, stats.olympiad_hi)
    if stats.variance == 0.0:
        return stats.mean
    lo, hi = stats.fill_lo, stats.fill_hi
    while True:
        x = rng.uniform(max(lo, 0.0), min(hi, 100.0))
        if lo < x < hi and 0.0 < x <= 100.0:
            return x


def fill_missing(records: Sequence[StudentRecord], seed: int) -> list[StudentRecord]:
    """Fill every score gap with a seeded uniform draw.

    Olympiad gaps are drawn from [0.9 * max, min(1.1 * max, 100)] where max
    is the highest observed score of the same university and form; other
    gaps from the open band (mean - sd, mean + sd) of their form, redrawing
    on exact endpoint hits.  A form whose observed scores are all identical
    fills with that value directly.  The result keeps the input order.

    Filling is one pass over the records, grouping them by university and
    collecting the gaps of each (university, form), plus one
    :func:`form_stats` call per (university, form) that has a gap.  The draw
    order is a contract: gaps draw in (university, form, position) order, so
    shuffling complete records around does not change which value a given
    gap receives.
    """
    out = list(records)
    by_university: dict[str, list[StudentRecord]] = {}
    gaps: dict[tuple[str, str], list[int]] = {}
    for i, r in enumerate(out):
        by_university.setdefault(r.university, []).append(r)
        if r.missing:
            gaps.setdefault((r.university, r.form), []).append(i)
    needy: dict[tuple[str, str], FormStats] = {}
    starved: list[str] = []
    for key in sorted(gaps):
        university, form = key
        try:
            needy[key] = form_stats(by_university[university], form)
        except ValueError:
            starved.append(f"{university}/{form}")
    if starved:
        raise ValueError(
            "cannot fill gaps without any observed score in: " + ", ".join(starved)
        )
    rng = random.Random(seed)
    for key, stats in needy.items():
        for i in gaps[key]:
            out[i] = replace(out[i], score=_draw_fill(rng, out[i], stats), imputed=True)
    return out


@dataclass(frozen=True)
class MissingnessSummary:
    """Share of missing scores overall and per university."""

    n_total: int
    n_missing: int
    overall: float
    per_university: dict[str, float]
    high: bool


def missingness_summary(
    records: Iterable[StudentRecord], warn_threshold: float = 0.05
) -> MissingnessSummary:
    """Fractions of missing scores; warns when the overall share exceeds 5%."""
    totals: dict[str, int] = {}
    gaps: dict[str, int] = {}
    n_total = 0
    n_missing = 0
    for r in records:
        totals[r.university] = totals.get(r.university, 0) + 1
        gaps.setdefault(r.university, 0)
        n_total += 1
        if r.missing:
            gaps[r.university] += 1
            n_missing += 1
    overall = n_missing / n_total if n_total else 0.0
    high = overall > warn_threshold
    if high:
        warnings.warn(
            f"{n_missing} of {n_total} scores ({overall:.1%}) are missing, "
            f"above the {warn_threshold:.0%} threshold",
            stacklevel=2,
        )
    return MissingnessSummary(
        n_total=n_total,
        n_missing=n_missing,
        overall=overall,
        per_university={u: gaps[u] / totals[u] for u in totals},
        high=high,
    )
