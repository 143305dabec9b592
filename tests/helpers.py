"""Independent reference implementations the tests check the package against.

Everything here is written as plain loops over matrix cells, deliberately
ignoring how the package itself computes things.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import replace

from unihet.imputation import FormStats


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


def reference_mean_pstdev(xs):
    """Mean and population standard deviation, as ``UniversityStats`` keeps them."""
    return statistics.fmean(xs), statistics.pstdev(xs)


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
        university=university,
        form=form,
        count=len(sub),
        missing=len(sub) - len(observed),
        mean=statistics.fmean(observed),
        variance=reference_pvariance(observed),
        min_obs=min(observed),
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
