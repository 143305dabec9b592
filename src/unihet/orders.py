"""Interval orders over score intervals and distances between them.

A university's entrance scores are summarised by an interval on the score
axis.  One university dominates another exactly when its whole interval lies
to the right of the other's, which yields a strict partial order of a special
kind (an interval order).  Two such orders over the same universities are
compared cell by cell through a normalized Hamming distance.

Everything here is pure and deterministic; incidence matrices are stored as
read-only numpy boolean arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import lshift, mul
from typing import Sequence

import numpy as np

__all__ = [
    "ScoreInterval",
    "UniversityStats",
    "IntervalOrder",
    "INTERVAL_METHODS",
    "interval_of",
    "build_interval_order",
    "hamming",
]

INTERVAL_METHODS = ("mean_std", "min_max")


def _scaled(xs: Sequence[float]) -> tuple[list[int], int]:
    """Integers ``k`` and one exponent ``e`` with ``xs[i] == k[i] * 2**e`` exactly.

    Every finite float is an integer mantissa times a power of two; shifting
    each mantissa to the smallest exponent present puts them all on one
    scale, where Python ints add and multiply without rounding.
    """
    a = np.asarray(xs, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("values must be finite")
    frac, exp = np.frexp(a)  # a == frac * 2**exp, |frac| in [0.5, 1) or 0
    low = int(exp.min())
    mantissas = (frac * 2.0**53).astype(np.int64).tolist()
    return list(map(lshift, mantissas, (exp - low).tolist())), low - 53


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


def _spread(xs: Sequence[float], ddof: int) -> float:
    """``sqrt(sum((x - mean)**2) / (n - ddof))`` with a single rounding.

    The sums are exact integers, so this is ``statistics.pstdev(xs)`` for
    ``ddof=0`` and ``statistics.stdev(xs)`` for ``ddof=1``, bit for bit.
    """
    ks, e = _scaled(xs)
    n = len(ks)
    total = sum(ks)
    # sum((x - mean)**2) == (n * sum(k*k) - sum(k)**2) * 4**e / n
    num, den = n * sum(map(mul, ks, ks)) - total * total, n * (n - ddof)
    return _sqrt_ratio(num << 2 * e, den) if e >= 0 else _sqrt_ratio(num, den << -2 * e)


def _mean_square_deviation(xs: Sequence[float], mu: float) -> float:
    """Mean of the float squares ``(x - mu)**2``, summed exactly and rounded once.

    This is ``statistics.pvariance(xs, mu=mu)`` bit for bit: each deviation
    and its square are rounded as floats, as there, and only their sum is
    exact.  A square past the float range makes the result ``inf``, as there.
    """
    with np.errstate(over="ignore"):  # a deviation or square past the float range is inf
        d = np.asarray(xs, dtype=float) - mu
        squares = d * d
    if np.isinf(squares).any():
        return math.inf
    ks, e = _scaled(squares)
    total, n = sum(ks), len(ks)
    return (total << e) / n if e >= 0 else total / (n << -e)


@dataclass(frozen=True)
class ScoreInterval:
    """Closed interval [lo, hi] on the score axis."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")


@dataclass(frozen=True)
class UniversityStats:
    """Aggregate of one university's admitted-student scores.

    ``std`` is the population standard deviation (divide by the student
    count, not count - 1).  ``score_range`` spans the lowest and highest raw
    score when they are known; min/max intervals need it.
    :func:`~unihet.data.aggregate` computes ``mean`` and ``std`` with the
    bits of ``statistics.fmean`` and ``statistics.pstdev``: ``std`` comes
    from exact integer sums rounded once at the end.
    """

    label: str
    mean: float
    std: float
    count: int
    score_range: ScoreInterval | None = None
    form: str | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("university label must be non-empty")
        if not math.isfinite(self.mean):
            raise ValueError(f"{self.label}: mean must be finite")
        if not (math.isfinite(self.std) and self.std >= 0):
            raise ValueError(f"{self.label}: std must be finite and non-negative")
        if self.count < 1:
            raise ValueError(f"{self.label}: count must be at least 1")


def interval_of(stats: UniversityStats, method: str) -> ScoreInterval:
    """A university's score interval under one of :data:`INTERVAL_METHODS`.

    ``mean_std`` is [mean - std, mean + std], unclipped; ``min_max`` is
    ``stats.score_range``, the span of the raw scores.
    """
    if method == "mean_std":
        return ScoreInterval(stats.mean - stats.std, stats.mean + stats.std)
    if method == "min_max":
        if stats.score_range is None:
            raise ValueError(f"{stats.label}: min/max intervals need raw scores")
        return stats.score_range
    raise ValueError(f"unknown interval method {method!r}; expected one of {INTERVAL_METHODS}")


class IntervalOrder:
    """A strict partial order with the interval-order structure.

    Stored as an n x n boolean incidence matrix: ``incidence[i, j]`` is True
    when university i is ranked strictly above university j.  Construction
    validates irreflexivity, asymmetry, transitivity and the defining
    condition that no two incomparable pairs form a 2+2 (equivalently, the
    successor sets are nested).  Validation takes O(n^2) time.
    """

    __slots__ = ("labels", "incidence")

    def __init__(self, labels: Sequence[str], incidence: np.ndarray) -> None:
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        mat = np.asarray(incidence, dtype=bool).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"incidence must be square, got shape {mat.shape}")
        if mat.shape[0] != len(labels):
            raise ValueError(f"{len(labels)} labels but incidence is {mat.shape[0]}x{mat.shape[0]}")
        mat.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "incidence", mat)
        self._validate()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntervalOrder is immutable")

    def _validate(self) -> None:
        # An irreflexive relation is an interval order exactly when its
        # successor sets form a chain under inclusion (Fishburn 1970); that
        # chain condition is Ferrers, which with irreflexivity implies
        # asymmetry and transitivity.  Sorting the rows by out-degree reduces
        # the chain test to nesting of neighbours, so the check is O(n^2).
        p = self.incidence
        if p.diagonal().any():
            raise ValueError("relation is not irreflexive")
        if (p & p.T).any():
            raise ValueError("relation is not asymmetric")
        rows = p[np.argsort(p.sum(axis=1), kind="stable")]
        if (rows[:-1] & ~rows[1:]).any():
            # Name the first failing axiom: a missing two-step pair means the
            # relation is not even transitive.
            f = p.astype(np.float32)
            if (((f @ f) > 0) & ~p).any():
                raise ValueError("relation is not transitive")
            raise ValueError("relation is not an interval order (2+2 found)")

    @property
    def n(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalOrder):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.incidence, other.incidence)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"IntervalOrder(n={self.n}, pairs={np.count_nonzero(self.incidence)})"


def build_interval_order(
    intervals: Sequence[tuple[str, ScoreInterval]]
) -> IntervalOrder:
    """Order the labelled intervals: i above j exactly when lo_i > hi_j.

    The comparison is strict; touching endpoints leave the pair incomparable.
    """
    if not intervals:
        raise ValueError("at least one interval is required")
    labels = tuple(lbl for lbl, _ in intervals)
    los = np.array([iv.lo for _, iv in intervals], dtype=float)
    his = np.array([iv.hi for _, iv in intervals], dtype=float)
    return IntervalOrder(labels, los[:, None] > his[None, :])


def hamming(order1: IntervalOrder, order2: IntervalOrder) -> float:
    """Normalized Hamming distance between two orders over the same universities.

    Counts the off-diagonal cells where the incidence matrices disagree and
    divides by n(n-1).  The orders are aligned by label: when ``order2``
    lists the same universities in another order, its matrix is permuted
    into ``order1``'s label order first.  Different label sets raise
    ``ValueError``.
    """
    n = order1.n
    if order2.n != n:
        raise ValueError(f"orders have different sizes: {n} and {order2.n}")
    if n < 2:
        raise ValueError("the distance is undefined for fewer than 2 universities")
    p2 = order2.incidence
    if order2.labels != order1.labels:
        index = {lbl: i for i, lbl in enumerate(order2.labels)}
        try:
            perm = np.array([index[lbl] for lbl in order1.labels])
        except KeyError as exc:
            raise ValueError(
                f"orders are over different universities: {exc.args[0]!r} is missing "
                "from the second order"
            ) from None
        p2 = p2[np.ix_(perm, perm)]
    diff = int(np.count_nonzero(order1.incidence != p2))
    return diff / (n * (n - 1))


def exclude_below(
    stats_list: Sequence[UniversityStats], floor: float
) -> list[UniversityStats]:
    """Drop universities whose mean score is strictly below ``floor``.

    Kept for ``perfbench/selftest.py``, which needs a traced name that a CLI
    run never calls; reports apply their floors in :mod:`unihet.report`.
    """
    if not math.isfinite(floor):
        raise ValueError("floor must be finite")
    kept = [s for s in stats_list if s.mean >= floor]
    if not kept:
        raise ValueError(f"floor {floor} removes every university")
    return kept
