"""Independent reference implementations the tests check the package against,
plus the seeded cohort synthesizer and pair-set views of orders the tests use.

The references are written as plain loops over matrix cells, deliberately
ignoring how the package itself computes things.  The package keeps an
order as interval endpoints; the matrix path lives here: the interval-order
axiom check on an incidence matrix, an order built from a valid matrix, and
the distance counted over the two matrices.  The package applies an
exclusion floor by restricting orders it has already built; the reference
here rebuilds both orders over the kept universities.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from unihet.data import Dataset, DatasetError, StudentRecord
from unihet.imputation import FormStats
from unihet.orders import IntervalOrder, hamming
from unihet.report import real_order


def is_irreflexive(m) -> bool:
    n = len(m)
    return all(not m[i][i] for i in range(n))


def is_asymmetric(m) -> bool:
    n = len(m)
    return all(not (m[i][j] and m[j][i]) for i in range(n) for j in range(n) if i != j)


def is_transitive(m) -> bool:
    n = len(m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][j] and m[j][k] and not m[i][k]:
                    return False
    return True


def is_ferrers(m) -> bool:
    # iPj and kPl imply iPl or kPj
    n = len(m)
    for i in range(n):
        for j in range(n):
            if not m[i][j]:
                continue
            for k in range(n):
                for l in range(n):
                    if m[k][l] and not (m[i][l] or m[k][j]):
                        return False
    return True


def brute_hamming(m1, m2) -> float:
    n = len(m1)
    diff = 0
    for i in range(n):
        for j in range(n):
            if i != j and bool(m1[i][j]) != bool(m2[i][j]):
                diff += 1
    return diff / (n * (n - 1))


def exhaustive_kmeans_wcss(values, k) -> float:
    """Minimum within-cluster sum of squares over all contiguous partitions."""
    sv = sorted(values)
    n = len(sv)

    def seg(i, j):
        chunk = sv[i:j]
        mu = statistics.fmean(chunk)
        return sum((v - mu) ** 2 for v in chunk)

    best = None
    for cuts in itertools.combinations(range(1, n), k - 1):
        edges = (0,) + cuts + (n,)
        wcss = sum(seg(a, b) for a, b in zip(edges, edges[1:]))
        if best is None or wcss < best:
            best = wcss
    return best


def reference_wcss(values, groups) -> float:
    """Within-cluster sum of squared deviations from each cluster's mean,
    where ``groups[i]`` is the cluster of ``values[i]``."""
    clusters = {}
    for v, g in zip(values, groups):
        clusters.setdefault(int(g), []).append(float(v))
    return sum(
        sum((v - statistics.fmean(chunk)) ** 2 for v in chunk) for chunk in clusters.values()
    )


def reference_mean(xs):
    """``statistics.fmean``, or the exact mean rounded once where its float
    sum overflows."""
    try:
        return statistics.fmean(xs)
    except OverflowError:
        return float(sum(map(Fraction, xs)) / len(xs))


def reference_mean_pstdev(xs):
    """Mean and population standard deviation, as ``UniversityStats`` keeps them."""
    return reference_mean(xs), statistics.pstdev(xs)


def reference_pvariance(xs):
    """Mean of the float squared deviations from the float mean, as ``form_stats``
    computes its variance."""
    return statistics.pvariance(xs, mu=statistics.fmean(xs))


def reference_stdev(xs):
    """Sample standard deviation, as the ideal families report a group's spread."""
    return statistics.stdev(xs)


def first_failing_axiom(m):
    """Name of the first interval-order axiom ``m`` breaks, or None.

    The axioms are checked in the order irreflexive, asymmetric, transitive,
    Ferrers; a transitive relation that breaks Ferrers contains a 2+2.
    """
    for name, holds in (
        ("irreflexive", is_irreflexive),
        ("asymmetric", is_asymmetric),
        ("transitive", is_transitive),
        ("2+2", is_ferrers),
    ):
        if not holds(m):
            return name
    return None


def reference_kmeans_1d(values, k):
    """Optimal 1-D k-means by a scalar dynamic program over split points.

    Returns one ``(positions, values, center, spread)`` tuple per cluster in
    ascending order, where ``positions`` index into ``values``.  Among equally
    good partitions the one with the earliest split points wins (strict ``<``).
    """
    vals = [float(v) for v in values]
    n = len(vals)
    order = sorted(range(n), key=lambda i: vals[i])
    sv = [vals[i] for i in order]
    pre = [0.0] * (n + 1)
    pre2 = [0.0] * (n + 1)
    for i, v in enumerate(sv):
        pre[i + 1] = pre[i] + v
        pre2[i + 1] = pre2[i] + v * v

    def seg(i, j):
        cnt = j - i + 1
        s = pre[j + 1] - pre[i]
        return max(pre2[j + 1] - pre2[i] - s * s / cnt, 0.0)

    inf = math.inf
    cost = [[inf] * n for _ in range(k)]
    split = [[0] * n for _ in range(k)]
    for j in range(n):
        cost[0][j] = seg(0, j)
    for m in range(1, k):
        for j in range(m, n):
            best, best_i = inf, m
            for i in range(m, j + 1):
                c = cost[m - 1][i - 1] + seg(i, j)
                if c < best:
                    best, best_i = c, i
            cost[m][j] = best
            split[m][j] = best_i

    bounds = [n]
    j = n - 1
    for m in range(k - 1, 0, -1):
        i = split[m][j]
        bounds.append(i)
        j = i - 1
    bounds.append(0)
    bounds.reverse()

    clusters = []
    for a, b in zip(bounds, bounds[1:]):
        members = tuple(order[a:b])
        mvals = tuple(vals[i] for i in members)
        spread = reference_stdev(mvals) if len(mvals) > 1 else 0.0
        clusters.append((members, mvals, statistics.fmean(mvals), spread))
    return clusters


def reference_group_of(breakpoints, boundary_rule, x):
    """Tier of x: one step up per breakpoint below it, or equal under "upper"."""
    g = 0
    for b, rule in zip(breakpoints, boundary_rule):
        if x > b or (x == b and rule == "upper"):
            g += 1
    return g


def reference_bin_of(edges, x):
    """Bin of x among half-open [edges[i], edges[i+1]), the last bin closed.

    Returns None when x lies outside [edges[0], edges[-1]].
    """
    if x == edges[-1]:
        return len(edges) - 2
    for i in range(len(edges) - 1):
        if edges[i] <= x < edges[i + 1]:
            return i
    return None


def reference_form_stats(records, form):
    """Fill-band statistics of one form within one university's record list."""
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
    return FormStats(
        mean=statistics.fmean(observed),
        variance=reference_pvariance(observed),
        max_obs=max(observed),
    )


def reference_draw_fill(rng, record, stats):
    """One gap's fill: the olympiad band, or the open mean +- sd band, whose
    value is the mean when no float lies strictly inside it."""
    if record.basis == "olympiad":
        return rng.uniform(stats.olympiad_lo, stats.olympiad_hi)
    lo, hi = stats.fill_lo, stats.fill_hi
    if math.nextafter(lo, hi) == hi:  # lo == hi, or hi is lo's next float
        return stats.mean
    while True:
        x = rng.uniform(max(lo, 0.0), min(hi, 100.0))
        if lo < x < hi and 0.0 < x <= 100.0:
            return x


def reference_fill_missing(records, seed):
    """Gap filling over a record list that rescans every record for each
    (university, form) with a gap, then draws in (university, form, position)
    order over a sorted index."""
    records = list(records)
    needy = {}
    starved = []
    for key in sorted({(r.university, r.form) for r in records if r.missing}):
        university, form = key
        group = [r for r in records if r.university == university]
        try:
            needy[key] = reference_form_stats(group, form)
        except ValueError:
            starved.append(f"{university}/{form}")
    if starved:
        raise ValueError(
            "cannot fill gaps without any observed score in: " + ", ".join(starved)
        )
    rng = random.Random(seed)
    out = list(records)
    canonical = sorted(
        range(len(records)), key=lambda i: (records[i].university, records[i].form, i)
    )
    for i in canonical:
        r = records[i]
        if r.missing:
            value = reference_draw_fill(rng, r, needy[(r.university, r.form)])
            out[i] = replace(r, score=value, imputed=True)
    return out


def validate_incidence(labels, m):
    """Check that ``m`` is the incidence matrix of an interval order over
    ``labels``, and return it as a boolean array.

    An irreflexive relation is an interval order exactly when its successor
    sets form a chain under inclusion (Fishburn 1970); that chain condition
    is Ferrers, which with irreflexivity implies asymmetry and transitivity.
    Sorting the rows by out-degree reduces the chain test to nesting of
    neighbours.  A rejection names the first failing axiom, as
    :func:`first_failing_axiom` does.
    """
    p = np.asarray(m, dtype=bool)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"incidence must be square, got shape {p.shape}")
    if p.shape[0] != len(labels):
        raise ValueError(f"{len(labels)} labels but incidence is {p.shape[0]}x{p.shape[0]}")
    if p.diagonal().any():
        raise ValueError("relation is not irreflexive")
    if (p & p.T).any():
        raise ValueError("relation is not asymmetric")
    rows = p[np.argsort(p.sum(axis=1), kind="stable")]
    if (rows[:-1] & ~rows[1:]).any():
        # a missing two-step pair means the relation is not even transitive
        f = p.astype(np.float32)
        if (((f @ f) > 0) & ~p).any():
            raise ValueError("relation is not transitive")
        raise ValueError("relation is not an interval order (2+2 found)")
    return p


def order_from_matrix(labels, m):
    """The order over ``labels`` whose incidence matrix is ``m``.

    ``m`` is checked by :func:`validate_incidence`.  The endpoints come from
    the nested down-sets D(i) = {j : m[i, j]}: ``lo[i] = |D(i)|`` and
    ``hi[j] = max{|D(k)| : j not in D(k)}``.  Then ``lo[i] > hi[j]`` exactly
    when j is in D(i), since every down-set that misses j is a proper subset
    of D(i).
    """
    p = validate_incidence(labels, m)
    size = p.sum(axis=1)
    hi = [size[~p[:, j]].max() for j in range(len(p))]  # j is never in D(j)
    return IntervalOrder(labels, size, hi)


def matrix_hamming(order1, order2):
    """Normalized Hamming distance from the two incidence matrices, with
    ``order2``'s matrix permuted into ``order1``'s label order."""
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
    return int(np.count_nonzero(order1.incidence != p2)) / (n * (n - 1))


def reference_apply_floor(stats, floor, ideal, interval_method):
    """An exclusion floor applied by rebuilding: the universities with a mean
    of at least ``floor`` are kept, and the observed order and ``ideal`` are
    built again over them.  Returns how many universities were dropped and
    the distance after, or None for it when fewer than 2 are kept."""
    kept = [s for s in stats if s.mean >= floor]
    if len(kept) < 2:
        return len(stats) - len(kept), None
    ideal_kept, _ = ideal.build(kept)
    return len(stats) - len(kept), hamming(real_order(kept, interval_method), ideal_kept)


def pairs(order):
    """All (above, below) label pairs in the relation."""
    rows, cols = np.nonzero(order.incidence)
    return {(order.labels[i], order.labels[j]) for i, j in zip(rows, cols)}


def order_from_pairs(labels, pairs):
    """The order over ``labels`` that holds exactly the given (above, below) pairs."""
    labels = tuple(labels)
    index = {lbl: i for i, lbl in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=bool)
    for hi, lo in pairs:
        if hi not in index or lo not in index:
            raise ValueError(f"pair ({hi}, {lo}) mentions an unknown label")
        mat[index[hi], index[lo]] = True
    return order_from_matrix(labels, mat)

@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic dataset with exact per-university statistics.

    Each university draws a target mean, standard deviation and student
    count from the given ranges, then receives scores placed symmetrically
    around the mean so that the observed mean and population standard
    deviation hit the targets exactly.  ``missing_frac`` of each
    university's records lose their score (rounded, but always leaving at
    least two observed); ``tuition_frac`` is the chance a record is
    tuition-based rather than state-funded.
    """

    n_universities: int
    students_per_university: tuple[int, int]
    mean_range: tuple[float, float]
    std_range: tuple[float, float]
    missing_frac: float = 0.0
    seed: int = 0
    tuition_frac: float = 0.0
    group_label: str = "synthetic"

    def __post_init__(self) -> None:
        if self.n_universities < 1:
            raise DatasetError("need at least one university")
        lo, hi = self.students_per_university
        if not 2 <= lo <= hi:
            raise DatasetError(f"students_per_university must satisfy 2 <= lo <= hi, got {lo}..{hi}")
        mlo, mhi = self.mean_range
        if not (0.0 < mlo <= mhi <= 100.0):
            raise DatasetError(f"mean range must lie inside (0, 100], got {mlo}..{mhi}")
        slo, shi = self.std_range
        if not (0.0 <= slo <= shi):
            raise DatasetError(f"std range must satisfy 0 <= lo <= hi, got {slo}..{shi}")
        if not 0.0 <= self.missing_frac < 1.0:
            raise DatasetError(f"missing_frac must lie in [0, 1), got {self.missing_frac}")
        if not 0.0 <= self.tuition_frac <= 1.0:
            raise DatasetError(f"tuition_frac must lie in [0, 1], got {self.tuition_frac}")


_OBSERVED_BASES = ("competition", "out_of_competition", "targeted", "benefit", "other")
_OBSERVED_WEIGHTS = (0.85, 0.05, 0.05, 0.03, 0.02)
_MISSING_BASES = ("olympiad", "targeted", "benefit", "other")
_MISSING_WEIGHTS = (0.6, 0.2, 0.1, 0.1)


def _symmetric_scores(mean: float, std: float, n: int) -> list[float] | None:
    """n scores with the exact given mean and population std, or None if any
    would leave (0, 100]."""
    m = n // 2
    if n % 2 == 0:
        a = std
        scores = [mean - a] * m + [mean + a] * m
    else:
        if std > 0.0 and m == 0:
            return None  # a single score cannot have positive spread
        a = std * math.sqrt(n / (n - 1)) if std > 0.0 else 0.0
        scores = [mean] + [mean - a] * m + [mean + a] * m
    if scores and (min(scores) <= 0.0 or max(scores) > 100.0):
        return None
    return scores


def synth(spec: SynthSpec) -> Dataset:
    """Generate a dataset matching the recipe; deterministic in the seed."""
    rng = random.Random(spec.seed)
    width = len(str(spec.n_universities))
    records: list[StudentRecord] = []
    for u in range(1, spec.n_universities + 1):
        university = f"U{u:0{width}d}"
        n_total = rng.randint(*spec.students_per_university)
        n_miss = round(n_total * spec.missing_frac)
        n_miss = min(n_miss, n_total - 2)
        n_obs = n_total - n_miss
        scores = None
        for _ in range(1000):
            mean = rng.uniform(*spec.mean_range)
            std = rng.uniform(*spec.std_range)
            scores = _symmetric_scores(mean, std, n_obs)
            if scores is not None:
                break
        if scores is None:
            raise DatasetError(
                f"could not place scores inside (0, 100] for mean range "
                f"{spec.mean_range} and std range {spec.std_range}"
            )
        uni_records = []
        forms_used = set()
        for score in scores:
            form = "tuition_based" if rng.random() < spec.tuition_frac else "state_funded"
            forms_used.add(form)
            basis = rng.choices(_OBSERVED_BASES, weights=_OBSERVED_WEIGHTS)[0]
            uni_records.append(StudentRecord(university, form, basis, score))
        for _ in range(n_miss):
            # gaps only on forms that have observed scores, so they stay fillable
            form = rng.choice(sorted(forms_used))
            basis = rng.choices(_MISSING_BASES, weights=_MISSING_WEIGHTS)[0]
            uni_records.append(StudentRecord(university, form, basis, None))
        rng.shuffle(uni_records)
        records.extend(uni_records)
    return Dataset(tuple(records), spec.group_label)
