"""Reference orderings a score system can be compared against.

Three families are supported:

* ``clustered``: group the university mean scores into k clusters by exact
  one-dimensional k-means, then represent each cluster by the interval
  [center - spread, center + spread].
* ``uniform``: cut the range of mean scores into k equal-width bins and
  collapse each bin to a tiny interval around its midpoint.
* ``desired``: an explicit tier scheme given by score breakpoints, where a
  higher tier is ranked above every lower tier.

Each family yields an :class:`~unihet.orders.IntervalOrder` over the same
universities as the observed system, so the two can be compared with
:func:`~unihet.orders.hamming`.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .orders import (
    IntervalOrder,
    ScoreInterval,
    UniversityStats,
    _spread,
    build_interval_order,
)

__all__ = [
    "Cluster",
    "ClusterSpec",
    "UniformSpec",
    "DesiredSpec",
    "GroupRow",
    "ClusteredIdeal",
    "UniformIdeal",
    "DesiredIdeal",
    "kmeans_1d",
    "clustered_ideal",
    "uniform_ideal",
    "desired_ideal",
    "preset",
    "preset_names",
]


# --------------------------------------------------------------------------
# clustered

@dataclass(frozen=True)
class Cluster:
    """One k-means cluster of university mean scores.

    ``center`` is the mean of the member values and ``spread`` their sample
    standard deviation (0 for a singleton).
    """

    center: float
    spread: float
    labels: tuple[str, ...]
    values: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    def interval(self) -> ScoreInterval:
        return ScoreInterval(self.center - self.spread, self.center + self.spread)


@dataclass(frozen=True)
class ClusterSpec:
    """Result of k-means on a score axis; clusters run in ascending center order."""

    k: int
    clusters: tuple[Cluster, ...]

    def wcss(self) -> float:
        """Total within-cluster sum of squared deviations from the centers."""
        return sum((v - c.center) ** 2 for c in self.clusters for v in c.values)

    def cluster_of(self, label: str) -> Cluster:
        for c in self.clusters:
            if label in c.labels:
                return c
        raise KeyError(label)


def kmeans_1d(
    values: Sequence[float], k: int, labels: Sequence[str] | None = None
) -> ClusterSpec:
    """Optimal k-means clustering of one-dimensional values.

    Because an optimal clustering on a line consists of contiguous runs of
    the sorted values, the best partition is found exactly by dynamic
    programming over split points (no iterative refinement, no dependence on
    starting centers).  Ties between equally good partitions are broken
    deterministically in favour of earlier split points.

    ``k`` must be between 1 and the number of distinct values.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("cannot cluster an empty value list")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} values")
    distinct = len(set(vals))
    if not 1 <= k <= distinct:
        raise ValueError(f"k must be between 1 and {distinct} (distinct values), got {k}")

    order = sorted(range(n), key=lambda i: vals[i])
    sv = [vals[i] for i in order]
    pre = [0.0] * (n + 1)
    pre2 = [0.0] * (n + 1)
    for i, v in enumerate(sv):
        pre[i + 1] = pre[i] + v
        pre2[i + 1] = pre2[i] + v * v

    # cost[m, j]: least cost of m + 1 clusters over sorted positions 0..j;
    # split[m, j]: where the last of them starts.  For each j the cost of one
    # cluster over i..j is computed for every i at once, with the same
    # floating-point operations a scalar loop would do, so the chosen splits
    # do not depend on the vectorisation.  np.argmin takes the first minimum,
    # i.e. the earliest split among equally good ones.
    pre_a = np.array(pre)
    pre2_a = np.array(pre2)
    starts = np.arange(n, dtype=float)
    cost = np.full((k, n), math.inf)
    split = np.zeros((k, n), dtype=np.intp)
    with np.errstate(invalid="ignore", over="ignore"):
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

    bounds = [n]
    j = n - 1
    for m in range(k - 1, 0, -1):
        i = int(split[m, j])
        bounds.append(i)
        j = i - 1
    bounds.append(0)
    bounds.reverse()

    clusters = []
    for a, b in zip(bounds, bounds[1:]):
        members = order[a:b]
        mvals = tuple(vals[i] for i in members)
        center = statistics.fmean(mvals)
        spread = _spread(mvals, 1) if len(mvals) > 1 else 0.0
        clusters.append(
            Cluster(center, spread, tuple(labels[i] for i in members), mvals)
        )
    return ClusterSpec(k, tuple(clusters))


def _clustered_parts(
    stats_list: Sequence[UniversityStats], k: int
) -> tuple[ClusterSpec, list[tuple[str, ScoreInterval]]]:
    spec = kmeans_1d(
        [s.mean for s in stats_list], k, labels=[s.label for s in stats_list]
    )
    by_label = {lbl: c for c in spec.clusters for lbl in c.labels}
    intervals = [(s.label, by_label[s.label].interval()) for s in stats_list]
    return spec, intervals


def clustered_ideal(stats_list: Sequence[UniversityStats], k: int) -> IntervalOrder:
    """Reference order from k-means clusters of the university mean scores."""
    _, intervals = _clustered_parts(stats_list, k)
    return build_interval_order(intervals)


# --------------------------------------------------------------------------
# uniform

@dataclass(frozen=True)
class UniformSpec:
    """k equal-width bins spanning [lo, hi] on the score axis.

    Each bin is represented by a tiny interval of half-width ``half_width``
    around its midpoint, so universities in different bins are always
    strictly ordered and universities in the same bin never are.
    """

    k: int
    lo: float
    hi: float
    half_width: float = 0.001

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bin range must be finite")
        if self.k > 1 and not self.lo < self.hi:
            raise ValueError(f"need lo < hi for {self.k} bins, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"bin range is inverted: [{self.lo}, {self.hi}]")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @classmethod
    def from_means(cls, means: Sequence[float], k: int, half_width: float = 0.001) -> "UniformSpec":
        if not means:
            raise ValueError("cannot derive a bin range from an empty mean list")
        return cls(k, min(means), max(means), half_width)

    def edges(self) -> tuple[float, ...]:
        w = (self.hi - self.lo) / self.k
        return tuple(self.lo + i * w for i in range(self.k)) + (self.hi,)

    def centers(self) -> tuple[float, ...]:
        w = (self.hi - self.lo) / self.k
        return tuple(self.lo + (i + 0.5) * w for i in range(self.k))

    def bins_of(self, values: Sequence[float]) -> np.ndarray:
        """0-based bin index of each value.

        Bins are half-open [edge_i, edge_{i+1}) except the last, which also
        contains the upper endpoint.
        """
        x = np.asarray(values, dtype=float)
        bins = np.searchsorted(self.edges(), x, side="right") - 1
        bins[x == self.hi] = self.k - 1
        outside = (bins < 0) | (bins >= self.k)
        if outside.any():
            bad = x[outside][0]
            raise ValueError(f"{bad} is outside the bin range [{self.lo}, {self.hi}]")
        return bins

    def bin_of(self, x: float) -> int:
        """0-based index of the bin containing x (see :meth:`bins_of`)."""
        return int(self.bins_of([x])[0])

    def interval_for(self, b: int) -> ScoreInterval:
        c = self.centers()[b]
        return ScoreInterval(c - self.half_width, c + self.half_width)


def _uniform_parts(
    stats_list: Sequence[UniversityStats],
    k: int,
    assignment_override: Mapping[str, int] | None = None,
) -> tuple[UniformSpec, np.ndarray, list[tuple[str, ScoreInterval]]]:
    if not stats_list:
        raise ValueError("at least one university is required")
    means = [s.mean for s in stats_list]
    spec = UniformSpec.from_means(means, k)
    bins = spec.bins_of(means)
    if assignment_override:
        index = {s.label: i for i, s in enumerate(stats_list)}
        for lbl, b in assignment_override.items():
            if lbl not in index:
                raise ValueError(f"assignment override names unknown university {lbl!r}")
            if not 0 <= b < k:
                raise ValueError(f"override bin {b} for {lbl!r} is outside 0..{k - 1}")
            bins[index[lbl]] = b
    per_bin = [spec.interval_for(b) for b in range(k)]
    intervals = [(s.label, per_bin[b]) for s, b in zip(stats_list, bins)]
    return spec, bins, intervals


def uniform_ideal(
    stats_list: Sequence[UniversityStats],
    k: int,
    assignment_override: Mapping[str, int] | None = None,
) -> IntervalOrder:
    """Reference order from k equal-width bins over the mean-score range.

    ``assignment_override`` maps university labels to 0-based bin indices and
    replaces the rule-based assignment for exactly those universities, which
    is how borderline cases can be forced into a neighbouring bin.
    """
    _, _, intervals = _uniform_parts(stats_list, k, assignment_override)
    return build_interval_order(intervals)


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
    together.
    """

    breakpoints: tuple[float, ...]
    boundary_rule: tuple[str, ...]
    preset_name: str | None = None
    floor: float | None = None

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

    def group_of(self, x: float) -> int:
        """Tier index of score x, 0 for the weakest tier."""
        return int(self.groups_of([x])[0])

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

    def to_json_dict(self) -> dict:
        out: dict = {
            "breakpoints": list(self.breakpoints),
            "boundary_rule": list(self.boundary_rule),
            "floor": self.floor,
        }
        if self.preset_name is not None:
            out["preset_name"] = self.preset_name
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DesiredSpec":
        try:
            breakpoints = data["breakpoints"]
            boundary_rule = data["boundary_rule"]
        except KeyError as exc:
            raise ValueError(f"tier scheme JSON is missing the {exc.args[0]!r} field") from None
        return cls(
            breakpoints=tuple(breakpoints),
            boundary_rule=tuple(boundary_rule),
            preset_name=data.get("preset_name"),
            floor=data.get("floor"),
        )

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "DesiredSpec":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _desired_parts(
    stats_list: Sequence[UniversityStats], spec: DesiredSpec
) -> tuple[np.ndarray, list[tuple[str, ScoreInterval]]]:
    if not stats_list:
        raise ValueError("at least one university is required")
    tiers = spec.groups_of([s.mean for s in stats_list])
    intervals = [(s.label, ScoreInterval(float(g), float(g))) for s, g in zip(stats_list, tiers)]
    return tiers, intervals


def desired_ideal(stats_list: Sequence[UniversityStats], spec: DesiredSpec) -> IntervalOrder:
    """Reference order from a tier scheme applied to university mean scores.

    A university is ranked above another exactly when its tier is higher;
    universities sharing a tier are incomparable.
    """
    _, intervals = _desired_parts(stats_list, spec)
    return build_interval_order(intervals)


_PRESETS = {
    "electronic": DesiredSpec((55.0, 70.0), ("upper", "lower"), "electronic", 55.0),
    "economics": DesiredSpec((55.0, 65.0, 75.0), ("lower", "lower", "lower"), "economics", 55.0),
    "agriculture": DesiredSpec((50.0, 60.0), ("upper", "lower"), "agriculture", 50.0),
    "healthcare": DesiredSpec((60.0, 65.0, 75.0), ("upper", "lower", "lower"), "healthcare", 60.0),
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

    def to_json_dict(self) -> dict:
        return {
            "desc": self.desc,
            "lo": self.lo,
            "hi": self.hi,
            "mean": self.mean,
            "std": self.std,
            "count": self.count,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GroupRow":
        return cls(
            desc=data["desc"],
            lo=data["lo"],
            hi=data["hi"],
            mean=data["mean"],
            std=data["std"],
            count=data["count"],
        )


def _members_by_group(
    stats_list: Sequence[UniversityStats], groups: np.ndarray, n_groups: int
) -> list[list[float]]:
    """Member mean scores of each group, in ``stats_list`` order."""
    members: list[list[float]] = [[] for _ in range(n_groups)]
    for s, g in zip(stats_list, groups):
        members[g].append(s.mean)
    return members


def _member_stats(values: Sequence[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = statistics.fmean(values)
    std = _spread(values, 1) if len(values) > 1 else 0.0
    return mean, std


@dataclass(frozen=True)
class ClusteredIdeal:
    """Descriptor for a k-means reference order."""

    k: int

    def describe(self) -> str:
        return f"clustered:k={self.k}"

    def build(
        self, stats_list: Sequence[UniversityStats]
    ) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        spec, intervals = _clustered_parts(stats_list, self.k)
        order = build_interval_order(intervals)
        rows = tuple(
            GroupRow(
                desc=f"cluster {i + 1}",
                lo=c.center - c.spread,
                hi=c.center + c.spread,
                mean=c.center,
                std=c.spread,
                count=c.size,
            )
            for i, c in enumerate(spec.clusters)
        )
        return order, rows


@dataclass(frozen=True)
class UniformIdeal:
    """Descriptor for an equal-width-bin reference order."""

    k: int
    assignment_override: Mapping[str, int] | None = None

    def describe(self) -> str:
        return f"uniform:k={self.k}"

    def build(
        self, stats_list: Sequence[UniversityStats]
    ) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        spec, bins, intervals = _uniform_parts(stats_list, self.k, self.assignment_override)
        order = build_interval_order(intervals)
        edges = spec.edges()
        rows = []
        for b, members in enumerate(_members_by_group(stats_list, bins, spec.k)):
            mean, std = _member_stats(members)
            right = "]" if b == spec.k - 1 else ")"
            rows.append(
                GroupRow(
                    desc=f"[{_fmt(edges[b])};{_fmt(edges[b + 1])}{right}",
                    lo=edges[b],
                    hi=edges[b + 1],
                    mean=mean,
                    std=std,
                    count=len(members),
                )
            )
        return order, tuple(rows)


@dataclass(frozen=True)
class DesiredIdeal:
    """Descriptor for a tier-scheme reference order."""

    spec: DesiredSpec

    def describe(self) -> str:
        if self.spec.preset_name:
            return f"desired:preset={self.spec.preset_name}"
        return "desired:breaks=" + ",".join(_fmt(b) for b in self.spec.breakpoints)

    def build(
        self, stats_list: Sequence[UniversityStats]
    ) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        tiers, intervals = _desired_parts(stats_list, self.spec)
        order = build_interval_order(intervals)
        rows = []
        for g, members in enumerate(_members_by_group(stats_list, tiers, self.spec.n_groups)):
            mean, std = _member_stats(members)
            lo, hi = self.spec.group_bounds(g)
            rows.append(
                GroupRow(
                    desc=self.spec.group_desc(g),
                    lo=lo,
                    hi=hi,
                    mean=mean,
                    std=std,
                    count=len(members),
                )
            )
        return order, tuple(rows)
