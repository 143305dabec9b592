"""Reference orderings a score system can be compared against.

Three families are supported:

* ``clustered``: group the university mean scores into k clusters by exact
  one-dimensional k-means, then represent each cluster by the interval
  [mean - std, mean + std] of its members.
* ``uniform``: cut the range of mean scores into k equal-width bins and
  rank universities by bin.
* ``desired``: an explicit tier scheme given by score breakpoints, where a
  higher tier is ranked above every lower tier.

Each family assigns every university a group and builds the order and the
group table from that assignment in one place.  The result is an
:class:`~unihet.orders.IntervalOrder` over the same universities as the
observed system, so the two can be compared with
:func:`~unihet.orders.hamming`.
"""

from __future__ import annotations

import json
import math
from dataclasses import KW_ONLY, asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .orders import IntervalOrder, UniversityStats, _moments

__all__ = [
    "DesiredSpec",
    "GroupRow",
    "ClusteredIdeal",
    "UniformIdeal",
    "DesiredIdeal",
    "kmeans_1d",
    "preset",
    "preset_names",
]


# --------------------------------------------------------------------------
# clustered

def kmeans_1d(values: Sequence[float], k: int) -> np.ndarray:
    """Optimal k-means clustering of one-dimensional values.

    Returns the cluster index of each value, with clusters numbered 0..k-1
    by ascending center.  Because an optimal clustering on a line consists
    of contiguous runs of the sorted values, the best partition is found
    exactly by dynamic programming over split points (no iterative
    refinement, no dependence on starting centers).  Ties between equally
    good partitions are broken deterministically in favour of earlier split
    points.

    The values must be finite, and ``k`` must be between 1 and the number
    of distinct values.
    """
    vals = np.array(values, dtype=float)
    n = len(vals)
    if n == 0:
        raise ValueError("cannot cluster an empty value list")
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise ValueError(f"cannot cluster non-finite value {vals[bad[0]]} at position {bad[0]}")
    distinct = len(set(vals.tolist()))  # np.unique would add ~1.8 MB to peak RSS (numpy 2.4)
    if not 1 <= k <= distinct:
        raise ValueError(f"k must be between 1 and {distinct} (distinct values), got {k}")

    order = np.argsort(vals, kind="stable")
    sv = vals[order]

    # cost[m, j]: least cost of m + 1 clusters over sorted positions 0..j;
    # split[m, j]: where the last of them starts.  For each j the cost of one
    # cluster over i..j is computed for every i at once, with the same
    # floating-point operations a scalar loop would do, so the chosen splits
    # do not depend on the vectorisation.  np.argmin takes the first minimum,
    # i.e. the earliest split among equally good ones.
    starts = np.arange(n, dtype=float)
    cost = np.full((k, n), math.inf)
    split = np.zeros((k, n), dtype=np.intp)
    with np.errstate(invalid="ignore", over="ignore"):
        # prefix sums added one value at a time from 0.0, as a Python loop would
        pre_a = np.cumsum(np.concatenate(([0.0], sv)))
        pre2_a = np.cumsum(np.concatenate(([0.0], sv * sv)))
        for j in range(n):
            cnt = (j + 1) - starts[: j + 1]
            s = pre_a[j + 1] - pre_a[: j + 1]
            seg = pre2_a[j + 1] - pre2_a[: j + 1] - s * s / cnt
            seg[seg < 0.0] = 0.0
            seg[np.isnan(seg)] = math.inf  # overflowed sums: never a best split
            cost[0, j] = seg[0]
            for m in range(1, min(k, j + 1)):
                c = cost[m - 1, m - 1 : j] + seg[m : j + 1]
                b = int(c.argmin())
                cost[m, j] = c[b]
                split[m, j] = m + b

    groups = np.empty(n, dtype=np.intp)
    end = n
    for m in range(k - 1, -1, -1):  # split[0, j] is 0: the first cluster starts the values
        start = int(split[m, end - 1])
        groups[order[start:end]] = m
        end = start
    return groups


# --------------------------------------------------------------------------
# desired

def _fmt(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class DesiredSpec:
    """A tier scheme over the score axis.

    ``breakpoints`` are strictly ascending scores cutting the axis into
    ``len(breakpoints) + 1`` tiers, numbered from 0 (weakest) upward.  For a
    value equal to breakpoint i, ``boundary_rule[i]`` says which side it
    joins: ``"lower"`` keeps it in the tier below, ``"upper"`` promotes it.
    ``floor`` is the mean score under which a university is dropped in
    exclusion studies; it is carried here so a scheme and its floor travel
    together.  ``floor`` and ``preset_name`` are keyword-only.
    """

    breakpoints: tuple[float, ...]
    boundary_rule: tuple[str, ...]
    _: KW_ONLY
    floor: float | None = None
    preset_name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "boundary_rule", tuple(self.boundary_rule))
        if not self.breakpoints:
            raise ValueError("at least one breakpoint is required")
        for b in self.breakpoints:
            if not math.isfinite(b):
                raise ValueError(f"breakpoints must be finite, got {b}")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError(f"breakpoints must be strictly ascending: {self.breakpoints}")
        if len(self.boundary_rule) != len(self.breakpoints):
            raise ValueError(
                f"{len(self.breakpoints)} breakpoints need {len(self.breakpoints)} "
                f"boundary rules, got {len(self.boundary_rule)}"
            )
        for r in self.boundary_rule:
            if r not in ("lower", "upper"):
                raise ValueError(f"boundary rule must be 'lower' or 'upper', got {r!r}")
        if self.floor is not None and not math.isfinite(self.floor):
            raise ValueError("floor must be finite")

    @property
    def n_groups(self) -> int:
        return len(self.breakpoints) + 1

    def groups_of(self, values: Sequence[float]) -> np.ndarray:
        """Tier index of each score, 0 for the weakest tier."""
        x = np.asarray(values, dtype=float)[:, None]
        b = np.array(self.breakpoints)
        upper = np.array([r == "upper" for r in self.boundary_rule])
        return ((x > b) | ((x == b) & upper)).sum(axis=1)

    def group_bounds(self, g: int) -> tuple[float | None, float | None]:
        """(lower, upper) score bounds of tier g; None marks an unbounded side."""
        if not 0 <= g < self.n_groups:
            raise ValueError(f"tier index {g} is outside 0..{self.n_groups - 1}")
        lo = self.breakpoints[g - 1] if g > 0 else None
        hi = self.breakpoints[g] if g < len(self.breakpoints) else None
        return lo, hi

    def group_desc(self, g: int) -> str:
        """Human-readable tier description such as ``[55;70]`` or ``>70``."""
        lo, hi = self.group_bounds(g)
        if lo is None:
            assert hi is not None
            return f"<{_fmt(hi)}" if self.boundary_rule[g] == "upper" else f"<={_fmt(hi)}"
        if hi is None:
            rule = self.boundary_rule[g - 1]
            return f">={_fmt(lo)}" if rule == "upper" else f">{_fmt(lo)}"
        left = "[" if self.boundary_rule[g - 1] == "upper" else "("
        right = "]" if self.boundary_rule[g] == "lower" else ")"
        return f"{left}{_fmt(lo)};{_fmt(hi)}{right}"

    def to_json(self, path: str) -> None:
        """Write the scheme as JSON; ``preset_name`` is left out when None."""
        data = asdict(self)
        if self.preset_name is None:
            del data["preset_name"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "DesiredSpec":
        from .report import _decode  # the one JSON decoder; report imports this module
        with open(path, encoding="utf-8") as fh:
            return _decode(cls, json.load(fh), f"{path}: tier scheme JSON")


_PRESETS = {
    name: DesiredSpec(breakpoints, rules, floor=floor, preset_name=name)
    for name, breakpoints, rules, floor in (
        ("electronic", (55.0, 70.0), ("upper", "lower"), 55.0),
        ("economics", (55.0, 65.0, 75.0), ("lower", "lower", "lower"), 55.0),
        ("agriculture", (50.0, 60.0), ("upper", "lower"), 50.0),
        ("healthcare", (60.0, 65.0, 75.0), ("upper", "lower", "lower"), 60.0),
    )
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> DesiredSpec:
    """Named tier scheme for a study field.

    * ``electronic``: tiers <55, [55;70], >70; exclusion floor 55.
    * ``economics``: tiers <=55, (55;65], (65;75], >75; exclusion floor 55.
    * ``agriculture``: tiers <50, [50;60], >60; exclusion floor 50.
    * ``healthcare``: tiers <60, [60;65], (65;75], >75; a score of exactly 75
      stays in (65;75].  Exclusion floor 60.
    """
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; known presets: {', '.join(preset_names())}"
        ) from None


# --------------------------------------------------------------------------
# group tables and ideal descriptors

@dataclass(frozen=True)
class GroupRow:
    """One row of a group table: a tier, bin or cluster and its members' stats.

    ``lo``/``hi`` are the group's score bounds (None for an unbounded tier).
    ``mean``/``std`` summarise the member universities' mean scores and are
    None when the group is empty; ``std`` is the sample standard deviation,
    0 for a single member.
    """

    desc: str
    lo: float | None
    hi: float | None
    mean: float | None
    std: float | None
    count: int


def _grouped(
    stats_list: Sequence[UniversityStats],
    groups: np.ndarray,
    bounds: Sequence[tuple[str, float | None, float | None]] | None = None,
) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
    """Reference order and group table of universities placed in groups.

    ``groups[i]`` is the group index of ``stats_list[i]``, and each
    university takes its group's endpoints.  With ``bounds``, group g is
    described by ``bounds[g] = (desc, lo, hi)`` and its endpoints are the
    point [g, g], so a higher group ranks strictly above a lower one.
    Without it the groups are clusters: group g is "cluster g+1", and its
    endpoints are [mean - std, mean + std] of its members' mean scores.
    """
    groups = groups.tolist()
    n_groups = len(bounds) if bounds is not None else max(groups) + 1
    members: list[list[float]] = [[] for _ in range(n_groups)]
    for s, g in zip(stats_list, groups):
        members[g].append(s.mean)
    rows = []
    for g, vals in enumerate(members):
        mean, std = _moments(vals, 1) if vals else (None, None)
        if bounds is not None:
            desc, lo, hi = bounds[g]
        else:
            desc, lo, hi = f"cluster {g + 1}", mean - std, mean + std
        rows.append(GroupRow(desc, lo, hi, mean, std, len(vals)))
    ends = np.array([(g, g) if bounds is not None else (r.lo, r.hi) for g, r in enumerate(rows)])
    return IntervalOrder([s.label for s in stats_list], *ends[groups].T), tuple(rows)


@dataclass(frozen=True)
class ClusteredIdeal:
    """Reference order from k-means clusters of the university mean scores.

    Each cluster is represented by the interval [mean - std, mean + std] of
    its members' mean scores (std is the sample deviation, 0 for a
    singleton).
    """

    k: int

    def describe(self) -> str:
        return f"clustered:k={self.k}"

    def build(
        self, stats_list: Sequence[UniversityStats]
    ) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        return _grouped(stats_list, kmeans_1d([s.mean for s in stats_list], self.k))


@dataclass(frozen=True)
class UniformIdeal:
    """Reference order from k equal-width bins over the mean-score range.

    The bin edges are ``lo + i * w`` for i < k, then ``hi``, where
    ``w = (hi - lo) / k`` and [lo, hi] is the range of the mean scores.
    Bins are half-open [edge_i, edge_{i+1}) except the last, which also
    holds ``hi``.  Universities in different bins are always strictly
    ordered by bin, and universities in the same bin never are.

    ``assignment_override`` maps university labels to 0-based bin indices and
    replaces the rule-based assignment for exactly those universities, which
    is how borderline cases can be forced into a neighbouring bin.
    """

    k: int
    assignment_override: Mapping[str, int] | None = None

    def describe(self) -> str:
        return f"uniform:k={self.k}"

    def build(
        self, stats_list: Sequence[UniversityStats]
    ) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        if not stats_list:
            raise ValueError("at least one university is required")
        k = self.k
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        means = np.array([s.mean for s in stats_list])
        lo, hi = float(means.min()), float(means.max())
        if not math.isfinite(hi - lo):
            raise ValueError(f"bin range [{lo}, {hi}] is too wide to be finite")
        if k > 1 and not lo < hi:
            raise ValueError(f"need lo < hi for {k} bins, got [{lo}, {hi}]")
        w = (hi - lo) / k
        edges = [lo + i * w for i in range(k)] + [hi]
        bins = np.searchsorted(edges, means, side="right") - 1
        bins[means == hi] = k - 1
        if self.assignment_override:
            index = {s.label: i for i, s in enumerate(stats_list)}
            for lbl, b in self.assignment_override.items():
                if lbl not in index:
                    raise ValueError(f"assignment override names unknown university {lbl!r}")
                if not isinstance(b, int) or isinstance(b, bool):
                    raise ValueError(f"override bin {b!r} for {lbl!r} is not an integer")
                if not 0 <= b < k:
                    raise ValueError(f"override bin {b} for {lbl!r} is outside 0..{k - 1}")
                bins[index[lbl]] = b
        bounds = [
            (f"[{_fmt(edges[b])};{_fmt(edges[b + 1])}{']' if b == k - 1 else ')'}",
             edges[b], edges[b + 1])
            for b in range(k)
        ]
        return _grouped(stats_list, bins, bounds)


@dataclass(frozen=True)
class DesiredIdeal:
    """Reference order from a tier scheme applied to university mean scores.

    A university is ranked above another exactly when its tier is higher;
    universities sharing a tier are incomparable.
    """

    spec: DesiredSpec

    def describe(self) -> str:
        if self.spec.preset_name:
            return f"desired:preset={self.spec.preset_name}"
        return "desired:breaks=" + ",".join(_fmt(b) for b in self.spec.breakpoints)

    def build(
        self, stats_list: Sequence[UniversityStats]
    ) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        if not stats_list:
            raise ValueError("at least one university is required")
        spec = self.spec
        bounds = [(spec.group_desc(g), *spec.group_bounds(g)) for g in range(spec.n_groups)]
        return _grouped(stats_list, spec.groups_of([s.mean for s in stats_list]), bounds)
