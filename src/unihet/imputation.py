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
counts are :func:`~unihet.orders._counts` over university codes, and filling
takes the statistics of every (university, form) group with a gap from one
:func:`~unihet.orders._group_stats` call, computes all bands as arrays and
gives each gap one ``random.uniform`` call per draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .data import BASES, Dataset, _group_keys
from .orders import _counts, _group_stats

__all__ = [
    "ExclusionReport",
    "MissingnessSummary",
    "apply_exclusion",
    "fill_missing",
    "missingness_summary",
]


def _per_university(dataset: Dataset) -> tuple[list[int], list[int]]:
    """Record count and missing-score count of each university, by code."""
    codes, n = dataset.university_codes, len(dataset.universities())
    gap_codes = codes[np.isnan(dataset.scores)]
    return _counts(codes, n).tolist(), _counts(gap_codes, n).tolist()


@dataclass(frozen=True)
class ExclusionReport:
    """Which universities were dropped before imputation (in input order), and why."""

    excluded_student_count: int
    reasons: dict[str, tuple[str, ...]]

    @property
    def excluded_universities(self) -> tuple[str, ...]:
        return tuple(self.reasons)

    @property
    def n_excluded(self) -> int:
        return len(self.reasons)


def _check_exclusion_rules(min_students: int, max_missing_frac: float) -> None:
    """Refuse exclusion thresholds that no dataset could make valid."""
    if min_students < 1:
        raise ValueError(f"min_students must be at least 1, got {min_students}")
    if not 0.0 < max_missing_frac <= 1.0:
        raise ValueError(f"max_missing_frac must lie in (0, 1], got {max_missing_frac}")


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
    _check_exclusion_rules(min_students, max_missing_frac)
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
        excluded_student_count=sum(c for c, drop in zip(counts, dropped) if drop),
        reasons=reasons,
    )
    kept_rows = ~np.array(dropped, bool)[dataset.university_codes]
    return dataset._select(kept_rows), report


def fill_missing(dataset: Dataset, seed: int) -> Dataset:
    """Fill every score gap with a seeded uniform draw.

    Olympiad gaps are drawn from [0.9 * max, min(1.1 * max, 100)] where max
    is the highest observed score of the same university and form; other
    gaps from the open band (mean - sd, mean + sd) of their form, redrawing
    on exact endpoint hits.  The mean and population sd are ``statistics.fmean``
    and ``statistics.pstdev`` of the form's observed scores, each rounded once,
    so the band's ends are the bits of the observed mean ± std interval of the
    same scores.  When no float lies strictly inside that band (all observed
    scores of the form are equal, or the standard deviation is below about
    half an ulp of the mean) the gap takes the mean directly.  The
    result keeps the input order, and marks each filled score imputed.

    Groups without an observed score are all named in one error before any
    draw.  One :func:`~unihet.orders._group_stats` call over the dataset's own
    score column gives the means, sds and maxima of the (university, form)
    groups with a gap: the gaps and the rows of groups without a gap are keyed
    out in place, so no copy of the observed scores is made.  A dataset without
    a gap is returned as it is.  The draw order is a contract: gaps draw in
    (university, form, position) order, so shuffling complete records around
    does not change which value a given gap receives.  One stable sort of the
    gaps' group ranks puts them in that order, and one :func:`_draws` call draws
    them all, one ``rng.uniform`` call at a time.
    """
    scores = dataset.scores
    gaps = np.isnan(scores)
    if not gaps.any():
        return dataset
    keys, groups = _group_keys(dataset)
    gap_keys = keys[gaps]
    n_gaps = _counts(gap_keys, len(groups))
    # draw order: university identifier, then form, both as strings
    needy = sorted(np.flatnonzero(n_gaps).tolist(), key=groups.__getitem__)
    keys[(n_gaps == 0)[keys]] = len(groups)  # only the observed scores of groups with a gap
    keys[gaps] = len(groups)
    count, means, sd, _, maxima = _group_stats(scores, keys, len(groups), 0)
    del keys  # the rest of the fill needs only the gaps' keys
    starved = ["/".join(groups[key]) for key in needy if not count[key]]
    if starved:
        raise ValueError("cannot fill gaps without any observed score in: " + ", ".join(starved))
    rank = np.zeros(len(groups), np.intp)
    rank[needy] = np.arange(len(needy))
    order = np.argsort(rank[gap_keys], kind="stable")  # the gaps in draw order
    rows, group = np.flatnonzero(gaps)[order], gap_keys[order]
    lo, hi, top = (means - sd)[group], (means + sd)[group], maxima[group]
    oly = dataset.basis_codes[rows] == BASES.index("olympiad")
    draw = oly | (np.nextafter(lo, math.inf) < hi)
    values = means[group]  # where no float lies strictly inside the open band
    values[draw] = _draws(
        random.Random(seed),
        np.where(oly, 0.9 * top, np.maximum(lo, 0.0))[draw],
        np.where(oly, np.minimum(1.1 * top, 100.0), np.minimum(hi, 100.0))[draw],
        lo[draw], hi[draw], ~oly[draw],
    )
    filled = scores.copy()
    filled[rows] = values
    return dataset._with_scores(filled, dataset.imputed | gaps)


_DRAW_CHUNK = 1024  # draws per chunk: the Python floats of one chunk are held at a time


def _draws(rng: random.Random, a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           check: np.ndarray) -> np.ndarray:
    """``rng.uniform(a[i], b[i])`` for each i in turn, drawn again while ``check[i]`` holds
    and the value is not in the open band ``(lo[i], hi[i])`` and in (0, 100].

    The draws go into one float array, ``_DRAW_CHUNK`` at a time, so the
    arguments are held as Python floats for one chunk only."""
    out = np.empty(len(a))
    for start in range(0, len(a), _DRAW_CHUNK):
        chunk = slice(start, start + _DRAW_CHUNK)
        values, columns = [], (x[chunk].tolist() for x in (a, b, lo, hi, check))
        for a_i, b_i, lo_i, hi_i, check_i in zip(*columns):
            x = rng.uniform(a_i, b_i)
            while check_i and not (lo_i < x < hi_i and 0.0 < x <= 100.0):
                x = rng.uniform(a_i, b_i)
            values.append(x)
        out[chunk] = values
    return out


@dataclass(frozen=True)
class MissingnessSummary:
    """Share of missing scores overall and per university; ``high`` above 5% overall."""

    n_total: int
    n_missing: int
    per_university: dict[str, float]

    @property
    def overall(self) -> float:
        return self.n_missing / self.n_total if self.n_total else 0.0

    @property
    def high(self) -> bool:
        return self.overall > 0.05


def missingness_summary(dataset: Dataset) -> MissingnessSummary:
    """Fractions of missing scores."""
    totals, gaps = _per_university(dataset)
    return MissingnessSummary(
        n_total=dataset.n_records,
        n_missing=sum(gaps),
        per_university={u: g / t for u, g, t in zip(dataset.universities(), gaps, totals)},
    )
