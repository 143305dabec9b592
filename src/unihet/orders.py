"""Interval orders over score intervals and distances between them.

A university's entrance scores are summarised by an interval on the score
axis.  One university dominates another exactly when its whole interval lies
to the right of the other's, which yields a strict partial order of a special
kind (an interval order).  Two such orders over the same universities are
compared through a normalized Hamming distance: the share of ordered pairs
on which the relations disagree.

The universities' statistics are one table, :class:`UniversityStats`, and
:func:`build_interval_order` is the one place that turns them into
intervals.  An order is stored as its labels and the read-only arrays of
its interval endpoints, never as an n x n matrix.  Its check on
construction is O(n), and the distance counts the differing cells from
sorted endpoints in O(k n log n) time and O(n) memory, where k is the
smaller number of distinct intervals in the two orders.  Everything here
is pure and deterministic.
"""

from __future__ import annotations

import math
from operator import lshift, mul
from typing import Iterable, Sequence

import numpy as np

from . import INTERVAL_METHODS

__all__ = [
    "UniversityStats",
    "IntervalOrder",
    "INTERVAL_METHODS",
    "build_interval_order",
    "hamming",
]

def _sqrt_ratio(num: int, den: int) -> float:
    """``sqrt(num / den)`` correctly rounded, for integers ``num >= 0`` and ``den > 0``."""
    # Take the root scaled by 2**k to at least 56 bits and round it to odd
    # (set the last bit when the root is inexact); rounding that to a float
    # is then a correct rounding of the true root, subnormal results included.
    k = (112 - num.bit_length() + den.bit_length()) // 2
    if k >= 0:
        num <<= 2 * k
    else:
        den <<= -2 * k
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return root / (1 << k) if k >= 0 else float(root << -k)


def _limb_sums(limbs: Iterable[np.ndarray], starts: np.ndarray,
               shifts: Sequence[int]) -> list[int]:
    """Per group, the exact sum of ``limb[i] << shift`` over the group's positions ``i``, for
    each limb and shift of ``zip(limbs, shifts)``.

    Group ``g`` starts at position ``starts[g]`` and runs to the next start.
    Each limb is summed per group with ``np.add.reduceat`` in ``uint64``, so
    no group's sum of one limb may reach 2**64; a group's sums make one
    Python int.  The limbs may come one at a time from a generator.
    """
    sums = [np.add.reduceat(limb, starts, dtype=np.uint64).tolist() for limb in limbs]
    return [sum(map(lshift, column, shifts)) for column in zip(*sums)]


_SQUARE_SHIFTS = (0, 22, 43, 42, 64, 84)  # of the limb products a0a0, a0a1, a0a2, a1a1, a1a2, a2a2


def _group_moments(xs: np.ndarray, starts: np.ndarray,
                   ddof: int) -> tuple[list[float], list[float]]:
    """Per group, the mean and ``sqrt(sum((x - mean)**2) / (n - ddof))``, each rounded once.

    Group ``g`` is ``xs[starts[g]:starts[g + 1]]`` (the last runs to the end
    of ``xs``); no group is empty.  The results are ``statistics.fmean`` and
    ``pstdev`` (``ddof=0``) or ``stdev`` (``ddof=1``) bit for bit.  It is the
    package's one spread kernel: observed intervals, gap-filling bands and the
    reference orders' tier statistics all take their mean and spread from it.

    Each x is an integer mantissa times a power of two (``np.frexp``).
    Shifting a group's mantissas up to its lowest exponent gives integers
    ``k`` with ``x == k / d`` for one power of two ``d``, and the exact sums
    of ``k`` and ``k*k`` give both results: the mean is ``sum(k) / d``,
    which rounds once as ``math.fsum`` does, divided by n, and the spread is
    ``sqrt((n * sum(k*k) - sum(k)**2) / (n * (n - ddof) * d * d))``.

    A group of n < 2**21 non-negative values below 2**1000 whose exponents
    span at most 10 bits has every ``k`` below 2**63.  Its sums are taken in
    limbs (:func:`_limb_sums`): ``sum(k)`` in two 32-bit limbs and
    ``sum(k*k)`` in the six products of three 21-bit limbs, each below 2**42.
    Any other group sums its ``k`` as Python ints and takes its mean from
    ``math.fsum``; where a partial sum overflows, ``fsum`` raises although
    the mean is finite, and the mean is then the exact sum divided by n,
    rounded once.
    """
    if not np.isfinite(xs).all():
        raise ValueError("values must be finite")
    sizes = np.diff(starts, append=len(xs))
    frac, exp = np.frexp(xs)  # xs == frac * 2**exp, |frac| in [0.5, 1) or 0
    frac *= 2.0**53
    mantissas = frac.astype(np.int64)
    low = np.minimum.reduceat(exp, starts)
    high = np.maximum.reduceat(exp, starts)
    limbed = ((high - low <= 10) & (high <= 1000) & (sizes < 1 << 21)
              & (np.minimum.reduceat(mantissas, starts) >= 0))
    shift = exp - np.repeat(low, sizes)
    k = (mantissas << shift).view(np.uint64)  # below 2**63 in the limbed groups
    totals = _limb_sums((k & 0xFFFFFFFF, k >> 32), starts, (0, 32))
    a0, a1, a2 = k & 0x1FFFFF, (k >> 21) & 0x1FFFFF, k >> 42
    products = (p * q for p, q in ((a0, a0), (a0, a1), (a0, a2), (a1, a1), (a1, a2), (a2, a2)))
    squares = _limb_sums(products, starts, _SQUARE_SHIFTS)
    means, spreads = [], []
    bounds = [*starts.tolist(), len(xs)]
    for a, b, e, fast, total, square in zip(bounds, bounds[1:], (low - 53).tolist(),
                                            limbed.tolist(), totals, squares):
        n = b - a  # and x == k * 2**e
        if fast:
            means.append((total / (1 << -e) if e < 0 else float(total << e)) / n)
        else:
            ks = list(map(lshift, mantissas[a:b].tolist(), shift[a:b].tolist()))
            total = sum(ks)
            square = sum(map(mul, ks, ks))
            try:
                means.append(math.fsum(xs[a:b].tolist()) / n)
            except OverflowError:
                means.append(total / (n << -e) if e < 0 else (total << e) / n)
        if n == ddof:
            spreads.append(0.0)
            continue
        num, den = n * square - total * total, n * (n - ddof)
        spreads.append(_sqrt_ratio(num << 2 * e, den) if e >= 0 else
                       _sqrt_ratio(num, den << -2 * e))
    return means, spreads


_BATCH_ROWS = 4096  # groups are taken in batches of whole groups of about this many rows


def _batches(sizes: np.ndarray, rows: int) -> list[tuple[int, int]]:
    """Batches of whole groups, in turn, from non-empty groups of ``sizes`` rows: ``(a, b)``
    holds groups ``a`` to ``b - 1``.  A group joins the batch in which its last row falls when
    the rows are cut every ``rows`` rows, so a group longer than that ends its batch."""
    batch = (np.cumsum(sizes) - 1) // rows  # of each group, by its last row
    cuts = [*np.flatnonzero(np.diff(batch, prepend=-1)).tolist(), len(sizes)]
    return list(zip(cuts, cuts[1:]))


def _counts(keys: np.ndarray, n: int) -> np.ndarray:
    """How many of ``keys`` equal each of ``0 .. n - 1``, as one intp array; a key ``n``
    counts nowhere.  ``np.bincount`` takes the keys in slices of ``_BATCH_ROWS`` rows, each
    shifted down to its lowest key, so the scratch is one slice plus the counts: a whole
    column would be copied to intp first."""
    count = np.zeros(n + 1, np.intp)
    for start in range(0, len(keys), _BATCH_ROWS):
        part = keys[start:start + _BATCH_ROWS]
        low = part.min()
        part = np.bincount(part - low)
        count[low:low + len(part)] += part
    return count[:n]


def _group_stats(values: np.ndarray, keys: np.ndarray, n_groups: int,
                 ddof: int) -> tuple[np.ndarray, ...]:
    """Per group ``0 .. n_groups - 1``, the count, mean, spread, lowest and highest value.

    ``values[i]`` belongs to group ``keys[i]``; a row keyed ``n_groups`` belongs
    to no group, so callers leave rows out by key instead of copying the rest.
    The mean and spread are :func:`_group_moments` with ``ddof``; an empty group
    has count 0 and NaN for the other four.  The counts are :func:`_counts`.
    When the keys are non-decreasing, as codes in order of first appearance are
    in a file that lists each university's rows together, each group's rows are
    read in place; otherwise through one stable sort of ``keys``, in which the
    rows of no group come last and are never read.  Either way the groups go in
    batches of whole groups of about ``_BATCH_ROWS`` rows, each with one kernel
    call and one ``np.minimum``/``np.maximum.reduceat`` pass, so sorted keys need
    scratch for a batch plus the groups, not for the rows.
    """
    count = _counts(keys, n_groups)
    windows = (keys[a:a + _BATCH_ROWS + 1] for a in range(0, len(keys), _BATCH_ROWS))
    if all((w[1:] >= w[:-1]).all() for w in windows):
        order = None  # a stable sort of sorted keys is the identity
    else:
        order = np.argsort(keys, kind="stable")
    starts = np.cumsum(count) - count
    present = np.flatnonzero(count)
    mean, spread, low, high = np.full((4, n_groups), np.nan)
    for a, b in _batches(count[present], _BATCH_ROWS):
        groups = present[a:b]
        first, last = starts[groups[0]], starts[groups[-1]] + count[groups[-1]]
        xs = values[first:last] if order is None else values[order[first:last]]
        at = starts[groups] - first
        mean[groups], spread[groups] = _group_moments(xs, at, ddof)
        low[groups], high[groups] = np.minimum.reduceat(xs, at), np.maximum.reduceat(xs, at)
    return count, mean, spread, low, high


class UniversityStats:
    """Per-university score statistics: one read-only table, a row per university.

    Row ``i`` is university ``labels[i]``, whose ``count[i]`` scores have mean
    ``mean[i]`` and population standard deviation ``std[i]`` (divide by the
    count, not count - 1).  ``low`` and ``high``, each row's lowest and highest
    raw score, are None when unknown; min/max intervals need them.  ``forms``
    holds each row's study form when the rows are per form, else it is None.
    :func:`~unihet.data.aggregate` takes the numeric columns from one
    :func:`_group_stats` call, ``mean`` and ``std`` with the bits of
    ``statistics.fmean`` and ``statistics.pstdev``: each is rounded once from
    an exact sum.
    Construction checks every column in O(n), and a failed check names the
    first bad row's label.  The numeric columns are read-only numpy arrays.
    """

    __slots__ = ("labels", "mean", "std", "count", "low", "high", "forms")

    def __init__(self, labels: Sequence[str], mean: Sequence[float], std: Sequence[float],
                 count: Sequence[int], low: Sequence[float] | None = None,
                 high: Sequence[float] | None = None, forms: Sequence[str] | None = None) -> None:
        labels = tuple(labels)
        n = len(labels)
        mean, std = np.array(mean, dtype=float), np.array(std, dtype=float)
        count = np.array(count, dtype=np.int64)
        if low is not None or high is not None:  # one without the other fails the shape check
            low, high = np.array(low, dtype=float), np.array(high, dtype=float)
        forms = None if forms is None else tuple(forms)
        columns = {"mean": mean, "std": std, "count": count, "low": low, "high": high,
                   "forms": forms}
        for name, column in columns.items():
            if column is not None and np.shape(column) != (n,):
                raise ValueError(f"{n} labels need {n} values of {name}, "
                                 f"got shape {np.shape(column)}")
        if not all(labels):
            raise ValueError("university label must be non-empty")
        checks = [(np.isfinite(mean), lambda i: "mean must be finite"),
                  (np.isfinite(std) & (std >= 0), lambda i: "std must be finite and non-negative"),
                  (count >= 1, lambda i: "count must be at least 1")]
        if low is not None:
            checks += [(np.isfinite(low) & np.isfinite(high),
                        lambda i: f"interval bounds must be finite, got [{low[i]}, {high[i]}]"),
                       (low <= high,
                        lambda i: f"interval lower bound {low[i]} exceeds upper bound {high[i]}")]
        for ok, problem in checks:
            bad = np.flatnonzero(~ok)
            if len(bad):
                raise ValueError(f"{labels[bad[0]]}: {problem(bad[0])}")
        for name, value in (("labels", labels), *columns.items()):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniversityStats is immutable")

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows: Sequence[int] | Sequence[bool] | np.ndarray) -> UniversityStats:
        """The rows that a boolean mask or an index array selects, as a new table."""
        index = np.arange(len(self))[rows]
        picked = index.tolist()
        low, high = (None if x is None else x[index] for x in (self.low, self.high))
        forms = None if self.forms is None else [self.forms[i] for i in picked]
        return UniversityStats([self.labels[i] for i in picked], self.mean[index],
                               self.std[index], self.count[index], low, high, forms)


class IntervalOrder:
    """An interval order given by the endpoints of its intervals.

    University i (``labels[i]``) holds the interval [``lo[i]``, ``hi[i]``]
    and is ranked strictly above university j exactly when
    ``lo[i] > hi[j]``.  Finite endpoints with ``lo <= hi`` always give an
    interval order (Fishburn 1970), so construction only checks, in O(n),
    that the labels are distinct, the lengths match and the endpoints are
    finite with ``lo <= hi``.  ``lo`` and ``hi`` are read-only float arrays.
    ``incidence``, the n x n matrix with ``incidence[i, j]`` True when i is
    above j, is computed on each access and never kept.  Two orders are
    equal when they have the same labels and the same relation, whatever
    endpoints give it.
    """

    __slots__ = ("labels", "lo", "hi")

    def __init__(self, labels: Sequence[str], lo: Sequence[float], hi: Sequence[float]) -> None:
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        if lo.shape != (len(labels),) or hi.shape != (len(labels),):
            raise ValueError(
                f"{len(labels)} labels need {len(labels)} lower and upper endpoints, "
                f"got shapes {lo.shape} and {hi.shape}"
            )
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval endpoints must be finite")
        bad = np.flatnonzero(lo > hi)
        if len(bad):
            i = bad[0]
            raise ValueError(f"{labels[i]}: lower endpoint {lo[i]} exceeds upper endpoint {hi[i]}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntervalOrder is immutable")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def incidence(self) -> np.ndarray:
        """The n x n read-only boolean matrix of the relation, built on each access."""
        mat = self.lo[:, None] > self.hi[None, :]
        mat.setflags(write=False)
        return mat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalOrder):
            return NotImplemented
        return self.labels == other.labels and _differing_cells(self, other) == 0

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"IntervalOrder(n={self.n}, pairs={_count_pairs(self.lo, self.hi)})"


def _count_pairs(lo: np.ndarray, hi: np.ndarray) -> int:
    """``|P|``, the number of pairs (i, j) with ``lo[i] > hi[j]``."""
    return int(np.searchsorted(np.sort(hi), lo).sum())


def _runs(lo: np.ndarray, hi: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order sorting the intervals by lo, then hi, then ``key``, and where
    each run of equal intervals starts in it; the last start is n."""
    by = np.lexsort((key, hi, lo))
    slo, shi = lo[by], hi[by]
    change = np.flatnonzero((slo[1:] != slo[:-1]) | (shi[1:] != shi[:-1])) + 1
    return by, np.concatenate(([0], change, [len(lo)]))


def _differing_cells(order1: IntervalOrder, order2: IntervalOrder) -> int:
    """Cells where the two relations differ, ``|P1| + |P2| - 2|P1 & P2|``.

    ``order2`` is aligned to ``order1``'s labels first; both have n labels.
    ``|P1 & P2|`` is counted over the runs of equal intervals [l, h] of
    whichever order has fewer of them: the rows i above a run are those
    with a lower endpoint over h, and the other order also ranks i above
    a member j of the run when its ``lo[i]`` exceeds that member's
    ``hi[j]``.  That is one ``searchsorted`` per run.
    """
    lo1, hi1, lo2, hi2 = order1.lo, order1.hi, order2.lo, order2.hi
    if not len(lo1):
        return 0
    if order2.labels != order1.labels:
        index = {lbl: i for i, lbl in enumerate(order2.labels)}
        try:
            perm = np.array([index[lbl] for lbl in order1.labels], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(
                f"orders are over different universities: {exc.args[0]!r} is missing "
                "from the second order"
            ) from None
        lo2, hi2 = lo2[perm], hi2[perm]
    # each run's upper endpoints in the other order come out ascending
    runs1, runs2 = _runs(lo1, hi1, hi2), _runs(lo2, hi2, hi1)
    if len(runs1[1]) <= len(runs2[1]):
        (by, starts), (glo, ghi), (olo, ohi) = runs1, (lo1, hi1), (lo2, hi2)
    else:
        (by, starts), (glo, ghi), (olo, ohi) = runs2, (lo2, hi2), (lo1, hi1)
    ohi_by = ohi[by]
    common = 0
    for start, end in zip(starts[:-1].tolist(), starts[1:].tolist()):
        above = olo[glo > ghi[by[start]]]
        common += int(np.searchsorted(ohi_by[start:end], above).sum())
    return _count_pairs(lo1, hi1) + _count_pairs(lo2, hi2) - 2 * common


def build_interval_order(stats: UniversityStats, method: str = "mean_std") -> IntervalOrder:
    """The interval order of a statistics table under one of :data:`INTERVAL_METHODS`.

    ``mean_std`` gives university i the interval [mean - std, mean + std],
    unclipped; ``min_max`` gives it [low, high], the span of its raw
    scores.  i is above j exactly when lo_i > hi_j: the comparison is
    strict, so touching endpoints leave the pair incomparable.
    """
    if not len(stats):
        raise ValueError("at least one interval is required")
    if method == "mean_std":
        lo, hi = stats.mean - stats.std, stats.mean + stats.std
    elif method == "min_max":
        if stats.low is None:
            raise ValueError(f"{stats.labels[0]}: min/max intervals need raw scores")
        lo, hi = stats.low, stats.high
    else:
        raise ValueError(f"unknown interval method {method!r}; expected one of {INTERVAL_METHODS}")
    return IntervalOrder(stats.labels, lo, hi)


def hamming(order1: IntervalOrder, order2: IntervalOrder) -> float:
    """Normalized Hamming distance between two orders over the same universities.

    The number of off-diagonal cells where the two relations disagree,
    divided by n(n-1).  The cells are counted from sorted endpoints, with no
    n x n matrix.  The orders are aligned by label: ``order2`` may list the
    same universities in another order.  Different label sets raise
    ``ValueError``.
    """
    n = order1.n
    if order2.n != n:
        raise ValueError(f"orders have different sizes: {n} and {order2.n}")
    if n < 2:
        raise ValueError("the distance is undefined for fewer than 2 universities")
    return _differing_cells(order1, order2) / (n * (n - 1))


def exclude_below(stats: UniversityStats, floor: float) -> UniversityStats:
    """Drop universities whose mean score is strictly below ``floor``.

    Kept for ``perfbench/selftest.py``, which needs a traced name that a CLI
    run never calls; reports apply their floors in :mod:`unihet.report`.
    """
    if not math.isfinite(floor):
        raise ValueError("floor must be finite")
    kept = stats.take(stats.mean >= floor)
    if not len(kept):
        raise ValueError(f"floor {floor} removes every university")
    return kept
