"""Property-based checks of the order, distance and imputation invariants."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unihet import (
    INTERVAL_METHODS,
    Dataset,
    DesiredIdeal,
    DesiredSpec,
    IntervalOrder,
    ScoreInterval,
    StudentRecord,
    UniversityStats,
    build_interval_order,
    fill_missing,
    hamming,
    load_csv,
    save_csv,
)
from unihet.data import aggregate
from unihet.ideals import kmeans_1d
from unihet.imputation import form_stats
from unihet.orders import _count_pairs
from unihet.report import _apply_floor, real_order

from helpers import (
    brute_hamming,
    exhaustive_kmeans_wcss,
    is_asymmetric,
    is_ferrers,
    is_irreflexive,
    is_transitive,
    matrix_hamming,
    order_from_matrix,
    reference_apply_floor,
    reference_wcss,
)

# Coordinates are kept on a 0.001 grid so that adding a shift of the same
# granularity cannot flip a strict comparison through rounding.
_coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
    lambda x: round(x, 3)
)
_width = st.floats(min_value=0.0, max_value=40.0, allow_nan=False).map(
    lambda x: round(x, 3)
)


@st.composite
def interval_sets(draw, n=None):
    if n is None:
        n = draw(st.integers(2, 8))
    pairs = draw(
        st.lists(st.tuples(_coord, _width), min_size=n, max_size=n)
    )
    return [
        (f"u{i}", ScoreInterval(lo, round(lo + w, 3))) for i, (lo, w) in enumerate(pairs)
    ]


@st.composite
def order_triples(draw):
    n = draw(st.integers(2, 8))
    return tuple(
        build_interval_order(draw(interval_sets(n=n))) for _ in range(3)
    )


class TestOrderAxioms:
    @given(interval_sets())
    def test_interval_orders_satisfy_all_axioms(self, intervals):
        m = build_interval_order(intervals).incidence
        assert is_irreflexive(m)
        assert is_asymmetric(m)
        assert is_transitive(m)
        assert is_ferrers(m)

    @given(interval_sets(), st.floats(min_value=-100, max_value=100).map(lambda x: round(x, 3)))
    def test_translation_invariance(self, intervals, shift):
        shifted = [
            (lbl, ScoreInterval(round(iv.lo + shift, 3), round(iv.hi + shift, 3)))
            for lbl, iv in intervals
        ]
        assert build_interval_order(intervals) == build_interval_order(shifted)


class TestHammingMetric:
    @given(order_triples())
    def test_metric_axioms(self, orders):
        o1, o2, o3 = orders
        d12 = hamming(o1, o2)
        assert 0.0 <= d12 <= 1.0
        assert hamming(o1, o1) == 0.0
        assert d12 == hamming(o2, o1)
        assert hamming(o1, o3) <= d12 + hamming(o2, o3) + 1e-12

    @given(order_triples())
    def test_zero_distance_means_equal_matrices(self, orders):
        o1, o2, _ = orders
        if hamming(o1, o2) == 0.0:
            assert (o1.incidence == o2.incidence).all()

    @given(order_triples())
    def test_matches_cell_by_cell_count(self, orders):
        o1, o2, _ = orders
        assert hamming(o1, o2) == brute_hamming(o1.incidence, o2.incidence)


@st.composite
def grid_orders(draw, labels):
    """An order over ``labels`` on a coarse grid, where touching endpoints,
    tied intervals and shared lower or upper endpoints are common."""
    spans = draw(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), min_size=len(labels),
                 max_size=len(labels))
    )
    return IntervalOrder(labels, [lo for lo, _ in spans], [lo + w for lo, w in spans])


@st.composite
def order_pairs(draw):
    """Two orders over the same labels, the second listing them in a drawn order."""
    n = draw(st.integers(1, 9))
    labels = [f"u{i}" for i in range(n)]
    shuffled = draw(st.permutations(labels))
    kinds = (grid_orders, lambda lbls: interval_sets(n=n).map(
        lambda ivs: build_interval_order(list(zip(lbls, (iv for _, iv in ivs))))
    ))
    o1 = draw(draw(st.sampled_from(kinds))(labels))
    o2 = draw(draw(st.sampled_from(kinds))(shuffled))
    return o1, o2


class TestCountedAgainstMatrix:
    """The endpoint counts against the matrix path of ``tests/helpers.py``."""

    @given(order_pairs())
    @settings(max_examples=300, deadline=None)
    def test_distance_equals_the_matrix_count(self, orders):
        o1, o2 = orders
        if o1.n < 2:
            with pytest.raises(ValueError, match="fewer than 2"):
                hamming(o1, o2)
            return
        perm = [o2.labels.index(lbl) for lbl in o1.labels]
        aligned = o2.incidence[np.ix_(perm, perm)]
        assert hamming(o1, o2) == brute_hamming(o1.incidence, aligned)
        assert hamming(o1, o2) == matrix_hamming(o1, o2)
        assert hamming(o2, o1) == matrix_hamming(o2, o1)

    @given(order_pairs())
    @settings(max_examples=200, deadline=None)
    def test_pair_count_and_equality(self, orders):
        o1, o2 = orders
        for o in orders:
            assert _count_pairs(o.lo, o.hi) == np.count_nonzero(o.incidence)
            assert repr(o) == f"IntervalOrder(n={o.n}, pairs={np.count_nonzero(o.incidence)})"
        same = o1.labels == o2.labels and np.array_equal(o1.incidence, o2.incidence)
        assert (o1 == o2) == same

    @given(order_pairs())
    @settings(max_examples=200, deadline=None)
    def test_order_from_matrix_reproduces_every_valid_matrix(self, orders):
        for o in orders:
            again = order_from_matrix(o.labels, o.incidence)
            assert again.incidence.tolist() == o.incidence.tolist()
            assert again == o


class TestKmeansOptimality:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 10.0]),
                st.floats(min_value=0, max_value=100, allow_nan=False).map(
                    lambda x: round(x, 2)
                ),
            ),
            min_size=1,
            max_size=9,
        ),
        st.integers(1, 4),
    )
    @settings(deadline=None)
    def test_never_beaten_by_exhaustive_search(self, values, k):
        assume(k <= len(set(values)))
        groups = kmeans_1d(values, k)
        assert reference_wcss(values, groups) <= exhaustive_kmeans_wcss(values, k) + 1e-9

    @given(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False).map(lambda x: round(x, 2)),
            min_size=2,
            max_size=9,
        ),
        st.integers(2, 4),
    )
    @settings(deadline=None)
    def test_each_value_is_closest_to_its_own_center(self, values, k):
        assume(k <= len(set(values)))
        groups = kmeans_1d(values, k).tolist()
        centers = [
            statistics.fmean(v for v, g in zip(values, groups) if g == c) for c in range(k)
        ]
        assert centers == sorted(centers)
        for v, g in zip(values, groups):
            own = abs(v - centers[g])
            assert all(own <= abs(v - other) + 1e-9 for other in centers)


class TestDesiredSpecProperties:
    @given(
        st.lists(
            st.floats(min_value=1, max_value=99, allow_nan=False).map(lambda x: round(x, 2)),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.data(),
    )
    def test_group_of_is_monotone(self, breaks, data):
        breaks = tuple(sorted(breaks))
        rules = tuple(
            data.draw(st.sampled_from(["lower", "upper"])) for _ in breaks
        )
        spec = DesiredSpec(breaks, rules)
        x = data.draw(_coord)
        y = data.draw(_coord)
        if x > y:
            x, y = y, x
        gx, gy = spec.groups_of([x, y]).tolist()
        assert gx <= gy
        assert 0 <= gx < spec.n_groups

    @given(st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_every_score_lands_in_exactly_the_described_tier(self, x):
        spec = DesiredSpec((55.0, 70.0), ("upper", "lower"))
        g = int(spec.groups_of([x])[0])
        lo, hi = spec.group_bounds(g)
        if lo is not None:
            assert x >= lo
        if hi is not None:
            assert x <= hi


class TestFillProperties:
    @given(
        st.lists(
            st.floats(min_value=1, max_value=100, allow_nan=False).map(lambda x: round(x, 1)),
            min_size=2,
            max_size=8,
        ),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**31),
    )
    @settings(deadline=None, max_examples=60)
    def test_fills_stay_in_their_band_and_domain(self, scores, n_gaps, olympiad, seed):
        records = [
            StudentRecord("U", "state_funded", "competition", s) for s in scores
        ]
        basis = "olympiad" if olympiad else "benefit"
        records += [StudentRecord("U", "state_funded", basis, None) for _ in range(n_gaps)]
        stats = form_stats(scores)
        for r in fill_missing(Dataset(records), seed=seed):
            if not r.imputed:
                continue
            assert 0.0 < r.score <= 100.0
            if olympiad:
                assert stats.olympiad_lo <= r.score <= stats.olympiad_hi
            elif stats.variance == 0.0:
                assert r.score == stats.mean
            else:
                assert stats.fill_lo < r.score < stats.fill_hi


_label = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1,
    max_size=8,
)
# any text a university id may be: commas, quotes and line breaks make
# save_csv quote it; padded ids are rejected, so the loader's strip is lossless
_university_id = (
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="/\0")
        | st.sampled_from(',"\r\n '),
        min_size=1,
        max_size=8,
    )
    .map(str.strip)
    .filter(bool)
)


class TestDatasetRoundTrip:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["state_funded", "tuition_based"]),
                st.sampled_from(["competition", "olympiad", "targeted", "other"]),
                st.one_of(
                    st.none(),
                    st.floats(min_value=0.001, max_value=100, allow_nan=False),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=20,
        ),
        ids=st.lists(_university_id, min_size=4, max_size=4),
        label=_label,
    )
    @settings(deadline=None, max_examples=60)
    def test_save_load_identity(self, tmp_path_factory, rows, ids, label):
        records = tuple(
            StudentRecord(ids[i], form, basis, score, imputed)
            for i, form, basis, score, imputed in rows
        )
        ds = Dataset(records, label)
        path = str(tmp_path_factory.mktemp("rt") / "data.csv")
        save_csv(ds, path, include_imputed=True)
        again = load_csv(path, group_label=label)
        assert again.records == ds.records
        assert again.group_label == label


class TestAggregationInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.floats(min_value=1, max_value=100, allow_nan=False).map(
                    lambda x: round(x, 2)
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_aggregate_reproduces_by_hand_statistics(self, rows):
        records = tuple(
            StudentRecord(f"u{i}", "state_funded", "competition", s) for i, s in rows
        )
        for stat in aggregate(Dataset(records)):
            scores = [r.score for r in records if r.university == stat.label]
            mean = sum(scores) / len(scores)
            var = sum((s - mean) ** 2 for s in scores) / len(scores)
            assert stat.mean == pytest.approx(mean, abs=1e-9)
            assert stat.std == pytest.approx(math.sqrt(var), abs=1e-9)
            assert stat.count == len(scores)


@st.composite
def floor_cases(draw):
    """A cohort, an interval method, a tier scheme and a floor.

    Means, breakpoints and floors lie on whole scores in a narrow range and
    the spreads on multiples of 2.5, so means tie, endpoints touch, means
    sit on breakpoints and floors sit on means.  A floor above the top mean
    keeps no university; the top means keep one or two when they are unique.
    """
    n = draw(st.integers(2, 8))
    stats = []
    for i in range(n):
        mean = float(draw(st.integers(50, 62)))
        std, below, above = (draw(st.sampled_from((0.0, 2.5, 5.0, 7.5))) for _ in range(3))
        stats.append(
            UniversityStats(f"u{i}", mean, std, 20, ScoreInterval(mean - below, mean + above))
        )
    breaks = sorted(draw(st.lists(st.integers(50, 62), min_size=1, max_size=3, unique=True)))
    rules = [draw(st.sampled_from(("lower", "upper"))) for _ in breaks]
    ideal = DesiredIdeal(DesiredSpec(tuple(map(float, breaks)), tuple(rules)))
    means = sorted({s.mean for s in stats})
    floor = draw(st.one_of(st.sampled_from(means), st.integers(48, 64).map(float)))
    return stats, draw(st.sampled_from(INTERVAL_METHODS)), ideal, floor


class TestFloorRestriction:
    """A floor restricts the built orders; ``tests/helpers.py`` rebuilds them."""

    @given(floor_cases())
    @settings(max_examples=300, deadline=None)
    def test_restriction_equals_rebuild(self, case):
        stats, method, ideal, floor = case
        real, (tiers, _) = real_order(stats, method), ideal.build(stats)
        got = _apply_floor(stats, floor, real, tiers)
        assert got == reference_apply_floor(stats, floor, ideal, method)

    @pytest.mark.parametrize("floor, n_kept", [(61.0, 0), (60.0, 1), (57.0, 2), (55.0, 3)])
    @pytest.mark.parametrize("method", INTERVAL_METHODS)
    def test_floors_leaving_few_universities(self, floor, n_kept, method):
        stats = [
            UniversityStats(f"u{i}", mean, 2.5, 20, ScoreInterval(mean - 5.0, mean + 2.5))
            for i, mean in enumerate((50.0, 55.0, 57.0, 60.0))
        ]
        ideal = DesiredIdeal(DesiredSpec((55.0, 58.0), ("upper", "lower")))
        real, (tiers, _) = real_order(stats, method), ideal.build(stats)
        got = _apply_floor(stats, floor, real, tiers)
        assert got == reference_apply_floor(stats, floor, ideal, method)
        assert got[0] == len(stats) - n_kept
        assert (got[1] is None) == (n_kept < 2)
