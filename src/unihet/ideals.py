"""Reference orderings a score system can be compared against.

Three families are supported, each one frozen dataclass:

* :class:`ClusteredIdeal` (``clustered:k=N``): group the university mean
  scores into k clusters by exact one-dimensional k-means, then represent
  each cluster by the interval [mean - std, mean + std] of its members.
* :class:`UniformIdeal` (``uniform:k=N``): cut the range of mean scores
  into k equal-width bins (k at most the university count) and rank by bin.
* :class:`DesiredIdeal` (``desired:preset=NAME`` or ``desired:breaks=a,b``):
  an explicit tier scheme given by score breakpoints, where a higher tier
  is ranked above every lower tier.  :func:`preset` returns the named
  schemes.

Each family's ``describe()`` writes its ``--ideal`` text (or its repr,
for an ideal built in Python that the grammar cannot write) and
:func:`parse_ideal` reads it back, so both halves of the grammar live here.
Each family's ``build`` assigns every row of a statistics table a group by
its mean and builds the order and the group table from that assignment in
one place.  The result is an
:class:`~unihet.orders.IntervalOrder` over the same universities as the
observed system, so the two can be compared with
:func:`~unihet.orders.hamming`.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Mapping, Sequence

import numpy as np

from .orders import IntervalOrder, UniversityStats, _group_stats

__all__ = [
    "GroupRow",
    "ClusteredIdeal",
    "UniformIdeal",
    "DesiredIdeal",
    "kmeans_1d",
    "preset",
    "preset_names",
    "parse_ideal",
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
# group tables and ideal descriptors

def _fmt(x: float) -> str:
    """A group bound as group tables show it, to six significant digits."""
    return f"{x:g}"


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
    stats: UniversityStats,
    groups: np.ndarray,
    bounds: Sequence[tuple[str, float | None, float | None]] | None = None,
) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
    """Reference order and group table of universities placed in groups.

    ``groups[i]`` is the group index of row i of ``stats``, and each
    university takes its group's endpoints.  With ``bounds``, group g is
    described by ``bounds[g] = (desc, lo, hi)`` and its endpoints are the
    point [g, g], so a higher group ranks strictly above a lower one.
    Without it the groups are clusters: group g is "cluster g+1", and its
    endpoints are [mean - std, mean + std] of its members' mean scores.
    One :func:`~unihet.orders._group_stats` call gives the count, mean and
    sample std of every group; an empty group's mean and std are None.
    """
    n = int(groups.max()) + 1 if bounds is None else len(bounds)
    columns = (column.tolist() for column in _group_stats(stats.mean, groups, n, 1)[:3])
    rows = []
    for g, (count, mean, std) in enumerate(zip(*columns)):
        if not count:
            mean = std = None
        if bounds is not None:
            desc, lo, hi = bounds[g]
        else:
            desc, lo, hi = f"cluster {g + 1}", mean - std, mean + std
        rows.append(GroupRow(desc, lo, hi, mean, std, count))
    ends = np.array([(g, g) if bounds is not None else (r.lo, r.hi) for g, r in enumerate(rows)])
    return IntervalOrder(stats.labels, *ends[groups].T), tuple(rows)


def _is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool, numpy's too, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_k(k: int) -> None:
    """Refuse a group count that is not an integer of at least 1."""
    if not _is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


@dataclass(frozen=True)
class ClusteredIdeal:
    """Reference order from k-means clusters of the university mean scores.

    Each cluster is represented by the interval [mean - std, mean + std] of
    its members' mean scores (std is the sample deviation, 0 for a
    singleton).
    """

    k: int

    def __post_init__(self) -> None:
        _check_k(self.k)

    def describe(self) -> str:
        return f"clustered:k={self.k}"

    def build(self, stats: UniversityStats) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        return _grouped(stats, kmeans_1d(stats.mean, self.k))


@dataclass(frozen=True)
class UniformIdeal:
    """Reference order from k equal-width bins over the mean-score range.

    The bin edges are ``lo + i * w`` for i < k, then ``hi``, where
    ``w = (hi - lo) / k`` and [lo, hi] is the range of the mean scores.
    Bins are half-open [edge_i, edge_{i+1}) except the last, which also
    holds ``hi``.  Universities in different bins are always strictly
    ordered by bin, and universities in the same bin never are.  ``build``
    refuses a k above the number of universities.

    ``assignment_override`` maps university labels to 0-based bin indices and
    replaces the rule-based assignment for exactly those universities, which
    is how borderline cases can be forced into a neighbouring bin.
    """

    k: int
    assignment_override: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        _check_k(self.k)

    def describe(self) -> str:
        """The ``--ideal`` text, or the repr when an override makes the grammar fall short."""
        return repr(self) if self.assignment_override else f"uniform:k={self.k}"

    def build(self, stats: UniversityStats) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        if not len(stats):
            raise ValueError("at least one university is required")
        k = self.k
        if k > len(stats):  # before k edges and k group rows are made
            raise ValueError(f"k must be between 1 and {len(stats)} (universities), got {k}")
        means = stats.mean
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
            index = {lbl: i for i, lbl in enumerate(stats.labels)}
            for lbl, b in self.assignment_override.items():
                if lbl not in index:
                    raise ValueError(f"assignment override names unknown university {lbl!r}")
                if not _is_integer(b):
                    raise ValueError(f"override bin {b!r} for {lbl!r} is not an integer")
                if not 0 <= b < k:
                    raise ValueError(f"override bin {b} for {lbl!r} is outside 0..{k - 1}")
                bins[index[lbl]] = b
        bounds = [
            (f"[{_fmt(edges[b])};{_fmt(edges[b + 1])}{']' if b == k - 1 else ')'}",
             edges[b], edges[b + 1])
            for b in range(k)
        ]
        return _grouped(stats, bins, bounds)




@dataclass(frozen=True)
class DesiredIdeal:
    """Reference order from a tier scheme applied to university mean scores.

    ``breakpoints`` are strictly ascending scores cutting the axis into
    ``len(breakpoints) + 1`` tiers, numbered from 0 (weakest) upward.  For a
    value equal to breakpoint i, ``boundary_rule[i]`` says which side it
    joins: ``"lower"`` keeps it in the tier below, ``"upper"`` promotes it.
    A university is ranked above another exactly when its tier is higher;
    universities sharing a tier are incomparable.

    ``floor`` is the mean score under which a field drops a university in
    exclusion studies, so a preset and its floor travel together; nothing
    applies it by itself (the CLI takes its floor from ``--exclude-below``).
    ``floor`` and ``preset_name`` are keyword-only.
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

    def describe(self) -> str:
        """The ``--ideal`` text of the same tiers, or the repr when the grammar has none:
        ``floor`` and ``preset_name`` do not change the order, and ``breaks=`` means
        ``lower`` rules."""
        named = _PRESETS.get(self.preset_name)
        scheme = (self.breakpoints, self.boundary_rule)
        if named is not None and (named.breakpoints, named.boundary_rule) == scheme:
            return f"desired:preset={self.preset_name}"
        if any(rule != "lower" for rule in self.boundary_rule):
            return repr(self)
        # repr is the shortest text that reads back as the same float
        texts = (repr(b).removesuffix(".0") for b in self.breakpoints)
        return "desired:breaks=" + ",".join(texts)

    def build(self, stats: UniversityStats) -> tuple[IntervalOrder, tuple[GroupRow, ...]]:
        if not len(stats):
            raise ValueError("at least one university is required")
        bounds = [(self.group_desc(g), *self.group_bounds(g)) for g in range(self.n_groups)]
        return _grouped(stats, self.groups_of(stats.mean), bounds)


# --------------------------------------------------------------------------
# presets and the --ideal grammar

_PRESETS = {
    name: DesiredIdeal(breakpoints, rules, floor=floor, preset_name=name)
    for name, breakpoints, rules, floor in (
        ("electronic", (55.0, 70.0), ("upper", "lower"), 55.0),
        ("economics", (55.0, 65.0, 75.0), ("lower", "lower", "lower"), 55.0),
        ("agriculture", (50.0, 60.0), ("upper", "lower"), 50.0),
        ("healthcare", (60.0, 65.0, 75.0), ("upper", "lower", "lower"), 60.0),
    )
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> DesiredIdeal:
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


def parse_ideal(text: str) -> ClusteredIdeal | UniformIdeal | DesiredIdeal:
    """Parse an ``--ideal`` argument; the inverse of each family's ``describe()``.

    Accepted forms: ``clustered:k=4``, ``uniform:k=4``,
    ``desired:preset=electronic``, ``desired:breaks=55,70``.  Explicit
    breakpoints use the ``lower`` boundary rule (a mean exactly on a
    breakpoint stays in the lower tier).
    """
    kind, _, rest = text.partition(":")
    key, has_value, value = rest.partition("=")
    if not has_value:
        raise ValueError(f"ideal {text!r} is missing its parameter")
    if kind in ("clustered", "uniform"):
        if key != "k":
            raise ValueError(f"ideal {text!r}: expected k=<int>")
        try:
            k = int(value)
        except ValueError:
            raise ValueError(f"ideal {text!r}: k must be an integer") from None
        return ClusteredIdeal(k) if kind == "clustered" else UniformIdeal(k)
    if kind == "desired":
        if key == "preset":
            return preset(value)
        if key == "breaks":
            try:
                breaks = tuple(float(x) for x in value.split(","))
            except ValueError:
                raise ValueError(f"ideal {text!r}: breaks must be numbers") from None
            return DesiredIdeal(breaks, ("lower",) * len(breaks))
        raise ValueError(f"ideal {text!r}: expected preset=<name> or breaks=<a,b,...>")
    raise ValueError(
        f"unknown ideal kind {kind!r}; expected clustered, uniform or desired"
    )
