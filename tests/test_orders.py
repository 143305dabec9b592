import itertools
import math
import runpy
import statistics
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unihet import (
    Dataset,
    IntervalOrder,
    StudentRecord,
    UniversityStats,
    build_interval_order,
    hamming,
)
from unihet.data import aggregate, load_csv
from unihet.orders import exclude_below

import unihet.orders
from unihet.orders import _BATCH_ROWS, _group_moments, _group_stats

from helpers import (
    brute_hamming,
    first_failing_axiom,
    matrix_hamming,
    order_from_matrix,
    order_from_pairs,
    pairs,
    reference_mean,
    reference_mean_pstdev,
    reference_stdev,
)

COHORTS = Path(__file__).resolve().parent.parent / "perfbench" / "cohorts.py"


def _ranged(low, high):
    """A table of one university, "X", with the raw score range [low, high]."""
    return UniversityStats(["X"], [50.0], [0.0], [2], [low], [high])


class TestScoreRange:
    """The raw score range: the table's ``low`` and ``high`` columns."""

    def test_basic(self):
        s = _ranged(55.0, 65.0)
        assert (s.low.tolist(), s.high.tolist()) == ([55.0], [65.0])

    def test_degenerate_point_is_allowed(self):
        s = _ranged(3.0, 3.0)
        assert s.low[0] == s.high[0] == 3.0

    def test_inverted_bounds_rejected(self):
        message = "^X: interval lower bound 10.0 exceeds upper bound 5.0$"
        with pytest.raises(ValueError, match=message):
            _ranged(10.0, 5.0)

    def test_nonfinite_rejected(self):
        message = r"^X: interval bounds must be finite, got \[nan, 1.0\]$"
        with pytest.raises(ValueError, match=message):
            _ranged(math.nan, 1.0)
        with pytest.raises(ValueError, match="^X: interval bounds must be finite"):
            _ranged(0.0, math.inf)


class TestUniversityStats:
    def test_aggregate_uses_population_std(self):
        records = [StudentRecord("X", "state_funded", "competition", x) for x in (55, 60, 65)]
        s = aggregate(Dataset(records))
        assert len(s) == 1
        assert s.mean[0] == 60.0
        assert s.std[0] == pytest.approx(4.08248290463863, abs=1e-12)
        assert s.count[0] == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="^university label must be non-empty$"):
            UniversityStats(["X", ""], [50.0, 50.0], [5.0, 5.0], [10, 10])
        # each message names the first bad row's label
        with pytest.raises(ValueError, match="^Y: mean must be finite$"):
            UniversityStats("XYZ", [50.0, math.nan, math.inf], [5.0] * 3, [10] * 3)
        with pytest.raises(ValueError, match="^X: std must be finite and non-negative$"):
            UniversityStats(["X"], [50.0], [-1.0], [10])
        with pytest.raises(ValueError, match="^X: count must be at least 1$"):
            UniversityStats(["X"], [50.0], [5.0], [0])
        with pytest.raises(ValueError, match="^2 labels need 2 values of std, got shape \\(1,\\)$"):
            UniversityStats("XY", [50.0, 60.0], [5.0], [10, 10])
        with pytest.raises(ValueError, match="^1 labels need 1 values of forms"):
            UniversityStats("X", [50.0], [5.0], [10], forms=["state_funded"] * 2)
        # low and high come together: a missing one has no values
        with pytest.raises(ValueError, match="^1 labels need 1 values of high, got shape \\(\\)$"):
            UniversityStats("X", [50.0], [5.0], [10], low=[45.0])

    def test_columns_are_read_only(self, four_system):
        with pytest.raises(AttributeError):
            four_system.mean = four_system.std
        with pytest.raises(ValueError):
            four_system.mean[0] = 0.0

    def test_take_keeps_every_column_and_form_aligned(self):
        stats = UniversityStats(
            ["A/state_funded", "A/tuition_based", "B/state_funded", "C/tuition_based"],
            [60.0, 61.0, 70.0, 80.0], [1.0, 2.0, 3.0, 4.0], [10, 11, 12, 13],
            [55.0, 56.0, 65.0, 75.0], [65.0, 66.0, 75.0, 85.0],
            ["state_funded", "tuition_based", "state_funded", "tuition_based"],
        )
        def rows(table):
            columns = (table.mean, table.std, table.count, table.low, table.high)
            return list(zip(table.labels, *(c.tolist() for c in columns), table.forms))

        everything = rows(stats)
        by_mask = stats.take([f == "tuition_based" for f in stats.forms])
        assert rows(by_mask) == [everything[1], everything[3]]
        assert rows(stats.take(np.array([3, 0, 2]))) == [everything[i] for i in (3, 0, 2)]
        assert rows(stats.take([])) == []
        bare = UniversityStats("AB", [1.0, 2.0], [0.0, 0.0], [1, 1]).take([1])
        assert (bare.labels, bare.low, bare.high, bare.forms) == (("B",), None, None, None)

    def test_interval_mean_std_is_not_clipped(self):
        order = build_interval_order(UniversityStats(["X"], [95.0], [10.0], [5]), "mean_std")
        assert (order.lo.tolist(), order.hi.tolist()) == ([85.0], [105.0])

    def test_interval_min_max(self):
        order = build_interval_order(UniversityStats(["X"], [6.0], [2.5], [3], [3.0], [9.0]),
                                     "min_max")
        assert (order.lo.tolist(), order.hi.tolist()) == ([3.0], [9.0])


def _outcome(f, xs):
    """The floats ``f(xs)`` returns, as bit patterns, or the exception type it raises."""
    try:
        out = f(xs)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return tuple(x.hex() for x in out) if isinstance(out, tuple) else out.hex()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NON_POSITIVE = st.floats(max_value=0.0, allow_infinity=False)
_ONE_DECIMAL = st.integers(1, 1000).map(lambda k: k / 10)
_TINY = st.floats(min_value=-2.3e-308, max_value=2.3e-308)  # subnormals and zeros
_HUGE = st.floats(min_value=1e299, max_value=1e301).flatmap(
    lambda x: st.sampled_from([x, -x])
)
_SAMPLES = st.one_of(
    st.lists(_ONE_DECIMAL, min_size=1, max_size=60),
    st.lists(_FINITE, min_size=1, max_size=20),
    _FINITE.map(lambda x: [x]),
    st.tuples(_FINITE, st.integers(2, 30)).map(lambda p: [p[0]] * p[1]),
    st.lists(st.one_of(st.sampled_from([0.0, -0.0]), _NON_POSITIVE), min_size=1),
    st.lists(st.one_of(_TINY, _HUGE, _ONE_DECIMAL), min_size=1, max_size=20),
)


def _moments(xs, ddof):
    """The mean and spread of one group of values: :func:`_group_moments` of one group."""
    (mean,), (spread,) = _group_moments(np.asarray(xs, dtype=float), np.zeros(1, np.intp), ddof)
    return mean, spread


def _reference_moments(xs, ddof):
    """Mean and spread as ``_moments`` gives them, or None where the spread overflows."""
    try:
        if ddof == 0:
            return reference_mean_pstdev(xs)
        return reference_mean(xs), reference_stdev(xs) if len(xs) > 1 else 0.0
    except OverflowError:
        return None


_MOMENT_GROUP = st.one_of(
    st.lists(_ONE_DECIMAL, min_size=1, max_size=30),  # limbed
    _ONE_DECIMAL.map(lambda x: [x]),  # groups of one
    st.tuples(_FINITE, st.integers(2, 10)).map(lambda p: [p[0]] * p[1]),  # equal scores
    # the exact-int path: exponents spanning over 10 bits, negative values, overflowing sums
    st.lists(st.one_of(_ONE_DECIMAL, st.floats(1e-6, 1e-4)), min_size=2, max_size=10),
    st.lists(st.one_of(_ONE_DECIMAL, st.floats(0.01, 0.1)), min_size=2, max_size=10),
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=10),
    st.just([1e308, 1e308, -1e308]),
    st.lists(st.floats(1e307, 1.7e308), min_size=2, max_size=4),
    st.lists(st.one_of(_TINY, _HUGE, _ONE_DECIMAL), min_size=1, max_size=10),
    st.lists(_FINITE, min_size=1, max_size=10),
)


class TestExactMoments:
    """The exact-integer kernel against the ``statistics`` functions, bit for bit."""

    @given(xs=_SAMPLES)
    @settings(max_examples=400, deadline=None)
    def test_mean_and_population_std(self, xs):
        assert _outcome(lambda v: _moments(v, 0), xs) == _outcome(reference_mean_pstdev, xs)

    @given(groups=st.lists(_MOMENT_GROUP.filter(lambda g: _reference_moments(g, 1) is not None),
                           min_size=1, max_size=8),
           ddof=st.sampled_from([0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_grouped_moments_match_statistics(self, groups, ddof):
        # one call over many groups, limbed and exact-int ones side by side
        starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
        xs = np.array(list(itertools.chain.from_iterable(groups)))
        means, spreads = _group_moments(xs, starts, ddof)
        got = [(m.hex(), s.hex()) for m, s in zip(means, spreads)]
        assert got == [tuple(v.hex() for v in _reference_moments(g, ddof)) for g in groups]

    def test_groups_longer_than_a_batch_and_cut_between(self):
        # _group_stats takes batches of whole groups: one longer than a batch, then groups
        # whose batch ends at a group boundary, then groups across a cut
        sizes = [_BATCH_ROWS + 904, 3, _BATCH_ROWS - 3, 1, _BATCH_ROWS, 2]
        scores = [[(17 + 31 * g + 7 * i) % 1000 / 10 + 0.1 for i in range(size)]
                  for g, size in enumerate(sizes)]
        records = [StudentRecord(f"U{g}", "state_funded", "competition", x)
                   for g, xs in enumerate(scores) for x in xs]
        stats = aggregate(Dataset(records))
        got = zip(stats.count.tolist(), stats.mean.tolist(), stats.std.tolist(),
                  stats.low.tolist(), stats.high.tolist())
        assert list(got) == [
            (len(xs), *reference_mean_pstdev(xs), min(xs), max(xs)) for xs in scores
        ]

    @pytest.mark.parametrize("workload", ["records-heavy", "universities-heavy", "split-minmax"])
    def test_perfbench_cohorts_match_a_per_group_reference(self, tmp_path, workload):
        cohorts = runpy.run_path(str(COHORTS), run_name="perfbench_cohorts")
        shape = {
            "records-heavy": cohorts["Shape"](300, (300, 400), 0.08, 0.30, n_small=3, n_gappy=3),
            "universities-heavy": cohorts["Shape"](700, (16, 24), 0.0, 0.30),
            "split-minmax": cohorts["Shape"](500, (40, 60), 0.05, 0.50),
        }[workload]
        path = str(tmp_path / "students.csv")
        cohorts["write"](shape, 1, path)
        ds = load_csv(path)
        for split in (False, True):
            groups: dict[str, list[float]] = {}
            for r in ds:
                group = groups.setdefault(f"{r.university}/{r.form}" if split else r.university, [])
                if r.score is not None:
                    group.append(r.score)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # groups without scores
                stats = aggregate(ds, split_by_form=split, drop_missing=True)
            assert sorted(stats.labels) == sorted(k for k, xs in groups.items() if xs)
            for label, count, low, high, mean, std in zip(
                stats.labels, stats.count.tolist(), stats.low.tolist(), stats.high.tolist(),
                stats.mean.tolist(), stats.std.tolist(),
            ):
                xs = groups[label]
                assert (count, low, high) == (len(xs), min(xs), max(xs))
                assert (mean.hex(), std.hex()) == tuple(
                    v.hex() for v in reference_mean_pstdev(xs))

    @given(xs=_SAMPLES.filter(lambda v: len(v) > 1))
    @settings(max_examples=400, deadline=None)
    def test_sample_std(self, xs):
        assert _outcome(lambda v: _moments(v, 1), xs) == _outcome(
            lambda v: (reference_mean(v), reference_stdev(v)), xs
        )

    @pytest.mark.parametrize(
        "xs",
        [[1e308, 1e308, -1e308], [8.988465674311579e307, 8.98846567431158e307, -1.0]],
    )
    def test_mean_past_an_overflowing_float_sum(self, xs):
        with pytest.raises(OverflowError):
            math.fsum(xs)
        exact = float(sum(map(Fraction, xs)) / len(xs))
        mean, spread = _moments(xs, 0)
        assert mean == exact
        assert spread == statistics.pstdev(xs)
        assert _moments(xs, 1) == (exact, statistics.stdev(xs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="^values must be finite$"):
            _moments([50.0, bad], 0)
        with pytest.raises(ValueError, match="^X: interval bounds must be finite"):
            _ranged(50.0, bad)


_GROUP_VALUES = st.lists(st.lists(st.one_of(_ONE_DECIMAL, st.floats(-100.0, 100.0),
                                            st.floats(1e-6, 1e-4)), max_size=12),
                         min_size=1, max_size=8)
_LEFT_OUT = st.lists(st.one_of(st.just(math.nan), st.floats(-100.0, 100.0)), max_size=6)


class TestGroupStats:
    """``_group_stats`` against a per-group reference: counts, the ``statistics``
    mean and spread bit for bit, and the lowest and highest value.  Rows keyed
    ``n_groups`` belong to no group, whatever their value."""

    @staticmethod
    def _check(groups, rows, ddof, batch_rows):
        """``_group_stats`` of ``rows``, (key, value) pairs, against ``groups``; returns
        whether it sorted the keys."""
        keys = np.array([g for g, _ in rows], np.int32)
        values = np.array([x for _, x in rows], float)
        with mock.patch.object(unihet.orders, "_BATCH_ROWS", batch_rows), \
                mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            count, mean, spread, low, high = _group_stats(values, keys, len(groups), ddof)
        for g, xs in enumerate(groups):
            assert count[g] == len(xs)
            if not xs:
                assert np.isnan([mean[g], spread[g], low[g], high[g]]).all()
                continue
            if ddof == 0:
                expected = statistics.pstdev(xs)
            else:
                expected = statistics.stdev(xs) if len(xs) > 1 else 0.0
            assert (mean[g].hex(), spread[g].hex()) == (statistics.fmean(xs).hex(), expected.hex())
            assert (low[g], high[g]) == (min(xs), max(xs))
        return argsort.called

    @given(groups=_GROUP_VALUES, left_out=_LEFT_OUT, ddof=st.sampled_from([0, 1]),
           batch_rows=st.integers(1, 16), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_per_group_reference(self, groups, left_out, ddof, batch_rows, data):
        # the rows come in shuffled key order, and small batches cut between and across groups
        rows = data.draw(st.permutations([(g, x) for g, xs in enumerate(groups) for x in xs]
                                         + [(len(groups), x) for x in left_out]))
        self._check(groups, rows, ddof, batch_rows)

    @given(groups=_GROUP_VALUES, left_out=_LEFT_OUT, ddof=st.sampled_from([0, 1]),
           batch_rows=st.integers(1, 16),
           arrangement=st.sampled_from(["sorted", "trailing", "one out of place"]),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_sorted_keys_are_read_in_place(self, groups, left_out, ddof, batch_rows,
                                           arrangement, data):
        # non-decreasing keys, then rows of no group after them, are read without a sort;
        # one row moved ahead of a smaller key makes the keys unsorted, and they are sorted
        rows = [(g, x) for g, xs in enumerate(groups) for x in xs]
        if arrangement != "sorted":
            rows += [(len(groups), x) for x in left_out]
        if arrangement == "one out of place":
            top = max((g for g, _ in rows), default=0)  # the last row's key
            smaller = [i for i, (g, _) in enumerate(rows) if g < top]
            assume(smaller)
            rows.insert(data.draw(st.sampled_from(smaller)), rows.pop())
        assert self._check(groups, rows, ddof, batch_rows) == (arrangement == "one out of place")


class TestIntervalOrder:
    def test_strict_domination_only(self):
        order = IntervalOrder(["a", "b", "c"], [0, 2, 5], [2, 4, 6])
        # touching endpoints (a hi=2, b lo=2) stay incomparable
        assert pairs(order) == {("c", "a"), ("c", "b")}

    def test_pairs_and_neighbourhoods(self, four_system):
        order = build_interval_order(four_system, "mean_std")
        assert pairs(order) == {("C", "A"), ("C", "B"), ("D", "A"), ("D", "B"), ("D", "C")}
        labels = np.array(order.labels)
        above_a = order.incidence[:, order.labels.index("A")]
        below_c = order.incidence[order.labels.index("C")]
        assert set(labels[above_a]) == {"C", "D"}
        assert set(labels[below_c]) == {"A", "B"}

    def test_from_pairs_round_trip(self):
        order = order_from_pairs(["a", "b", "c"], [("c", "a"), ("c", "b")])
        assert pairs(order) == {("c", "a"), ("c", "b")}
        assert repr(order) == "IntervalOrder(n=3, pairs=2)"
        with pytest.raises(ValueError, match="unknown label"):
            order_from_pairs(["a"], [("a", "z")])

    def test_rejects_irreflexivity_violation(self):
        m = np.zeros((2, 2), dtype=bool)
        m[0, 0] = True
        with pytest.raises(ValueError, match="irreflexive"):
            order_from_matrix(["a", "b"], m)

    def test_rejects_symmetric_pair(self):
        m = np.zeros((2, 2), dtype=bool)
        m[0, 1] = m[1, 0] = True
        with pytest.raises(ValueError, match="asymmetric"):
            order_from_matrix(["a", "b"], m)

    def test_rejects_intransitive(self):
        m = np.zeros((3, 3), dtype=bool)
        m[0, 1] = m[1, 2] = True
        with pytest.raises(ValueError, match="transitive"):
            order_from_matrix(["a", "b", "c"], m)

    def test_rejects_two_plus_two(self):
        # a>b and c>d with no cross pairs: transitive but not an interval order
        m = np.zeros((4, 4), dtype=bool)
        m[0, 1] = m[2, 3] = True
        with pytest.raises(ValueError, match="2\\+2"):
            order_from_matrix(["a", "b", "c", "d"], m)

    def test_rejects_shape_and_label_problems(self):
        with pytest.raises(ValueError, match="square"):
            order_from_matrix(["a"], np.zeros((1, 2), dtype=bool))
        with pytest.raises(ValueError, match="labels"):
            order_from_matrix(["a", "a"], np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="2x2"):
            order_from_matrix(["a", "b", "c"], np.zeros((2, 2), dtype=bool))

    def test_endpoint_check(self):
        assert IntervalOrder(["a", "b"], [0.0, 2.0], [1.0, 2.0]).incidence.tolist() == [
            [False, False],
            [True, False],
        ]
        assert repr(IntervalOrder([], [], [])) == "IntervalOrder(n=0, pairs=0)"
        with pytest.raises(ValueError, match="^b: lower endpoint 3.0 exceeds upper endpoint 2.0$"):
            IntervalOrder(["a", "b"], [0.0, 3.0], [1.0, 2.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^interval endpoints must be finite$"):
                IntervalOrder(["a", "b"], [0.0, bad], [1.0, 2.0])
        with pytest.raises(ValueError, match="^2 labels need 2 lower and upper endpoints"):
            IntervalOrder(["a", "b"], [0.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="^1 labels need 1 lower"):
            IntervalOrder(["a"], [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="^labels must be distinct$"):
            IntervalOrder(["a", "a"], [0.0, 1.0], [0.0, 1.0])

    def test_endpoints_are_copied(self):
        lo, hi = np.array([0.0, 2.0]), np.array([1.0, 3.0])
        order = IntervalOrder(["a", "b"], lo, hi)
        lo[1] = -1.0
        assert order.lo.tolist() == [0.0, 2.0]

    def test_immutable(self, worked_pair):
        real, _ = worked_pair
        with pytest.raises(AttributeError):
            real.labels = ()
        with pytest.raises(AttributeError):
            real.lo = real.hi
        with pytest.raises(ValueError):
            real.lo[0] = 0.0
        with pytest.raises(ValueError):
            real.incidence[0, 1] = True

    def test_equality(self, worked_pair):
        real, ideal = worked_pair
        assert real == real
        assert real != ideal
        again = order_from_matrix(real.labels, real.incidence)
        assert real == again
        assert not np.array_equal(again.lo, real.lo)  # other endpoints, same relation
        assert real != IntervalOrder(real.labels[::-1], real.lo, real.hi)

    def test_empty_input_rejected(self, four_system):
        with pytest.raises(ValueError, match="^at least one interval is required$"):
            build_interval_order(four_system.take([]))


_AXIOM_MESSAGES = {
    "irreflexive": "not irreflexive",
    "asymmetric": "not asymmetric",
    "transitive": "not transitive",
    "2+2": "2+2 found",
}


@st.composite
def random_relations(draw):
    n = draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    cells = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    m = np.array(cells).reshape(n, n) < density
    if draw(st.booleans()):
        np.fill_diagonal(m, False)
    return m


@st.composite
def perturbed_interval_relations(draw):
    n = draw(st.integers(1, 7))
    los = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    lo = np.array(los, dtype=float)
    m = lo[:, None] > (lo + np.array(widths))[None, :]
    # flip off-diagonal cells: the result is irreflexive but may break the
    # later axioms
    if n > 1:
        flips = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=3))
        for i, d in flips:
            j = (i + d) % n
            m[i, j] = not m[i, j]
    return m


@st.composite
def random_partial_orders(draw):
    # transitive closure of a random DAG: a strict partial order, often with a 2+2
    m = draw(random_relations())
    m = np.triu(m, 1)
    for k in range(len(m)):
        m |= m[:, k : k + 1] & m[k : k + 1, :]
    perm = draw(st.permutations(range(len(m))))
    return m[np.ix_(perm, perm)]


class TestValidation:
    @given(st.one_of(random_relations(), perturbed_interval_relations(), random_partial_orders()))
    @settings(max_examples=400, deadline=None)
    def test_accepts_exactly_what_the_axiom_oracle_accepts(self, m):
        labels = [f"u{i}" for i in range(len(m))]
        failing = first_failing_axiom(m.tolist())
        if failing is None:
            assert order_from_matrix(labels, m).incidence.tolist() == m.tolist()
        else:
            with pytest.raises(ValueError) as exc:
                order_from_matrix(labels, m)
            assert _AXIOM_MESSAGES[failing] in str(exc.value)

    def test_large_order_validates_and_planted_two_plus_two_is_rejected(self):
        rng = np.random.default_rng(2000)
        n = 2000
        lo = rng.uniform(0.0, 100.0, n)
        hi = lo + rng.uniform(0.0, 10.0, n)
        labels = [f"u{i}" for i in range(n)]
        m = lo[:, None] > hi[None, :]
        assert order_from_matrix(labels, m) == IntervalOrder(labels, lo, hi)
        # Cut universities 0..3 off from everyone, then relate them as
        # 0 > 1 and 2 > 3 only: still transitive, but a 2+2.
        m[:4, :] = False
        m[:, :4] = False
        m[0, 1] = m[2, 3] = True
        with pytest.raises(ValueError, match="2\\+2 found"):
            order_from_matrix(labels, m)


@st.composite
def small_orders(draw, n):
    coords = st.integers(0, 10)
    pairs = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
    return IntervalOrder([f"u{i}" for i in range(n)], [lo for lo, _ in pairs],
                         [lo + w for lo, w in pairs])


class TestHamming:
    def test_worked_example(self, worked_pair):
        real, ideal = worked_pair
        assert hamming(real, ideal) == pytest.approx(0.1, abs=1e-12)
        assert hamming(real, ideal) == brute_hamming(real.incidence, ideal.incidence)
        assert hamming(real, ideal) == matrix_hamming(real, ideal)

    def test_identical_orders(self, worked_pair):
        real, _ = worked_pair
        assert hamming(real, real) == 0.0

    def test_maximal_distance(self):
        chain = IntervalOrder(["a", "b"], [0, 2], [1, 3])
        flipped = order_from_matrix(["a", "b"], chain.incidence.T)
        assert hamming(chain, flipped) == 1.0

    def test_permuted_labels_are_aligned(self):
        # Same matrix, labels listed in another order: x is on top in the
        # first order and y in the second, so 4 of the 6 cells differ.
        o1 = IntervalOrder(["x", "y", "z"], [4, 0, 0], [5, 1, 1])  # x on top
        o2 = IntervalOrder(["y", "x", "z"], [4, 0, 0], [5, 1, 1])  # y on top
        assert np.array_equal(o1.incidence, o2.incidence)
        assert hamming(o1, o2) == 4 / 6
        assert hamming(o2, o1) == 4 / 6

    def test_different_label_sets_rejected(self):
        o1 = IntervalOrder(["a", "b"], [0, 2], [1, 3])
        o2 = IntervalOrder(["x", "y"], [0, 2], [1, 3])
        with pytest.raises(ValueError, match="different universities"):
            hamming(o1, o2)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_relabelling_by_permutation_keeps_the_distance(self, data):
        n = data.draw(st.integers(2, 7))
        o1, o2 = data.draw(small_orders(n)), data.draw(small_orders(n))
        perm = data.draw(st.permutations(range(n)))
        shuffled = IntervalOrder([o2.labels[p] for p in perm], o2.lo[perm], o2.hi[perm])
        assert pairs(shuffled) == pairs(o2)
        assert hamming(o1, shuffled) == hamming(o1, o2) == matrix_hamming(o1, shuffled)
        assert hamming(shuffled, o1) == hamming(o2, o1)
        assert hamming(o2, shuffled) == 0.0

    def test_size_mismatch(self, worked_pair):
        real, _ = worked_pair
        two = IntervalOrder(["a", "b"], [0, 2], [1, 3])
        with pytest.raises(ValueError, match="different sizes"):
            hamming(real, two)

    def test_single_university_undefined(self):
        one = IntervalOrder(["a"], [0], [1])
        with pytest.raises(ValueError, match="fewer than 2"):
            hamming(one, one)


class TestExcludeBelow:
    def test_keeps_threshold_value(self, four_system):
        kept = exclude_below(four_system, 65.0)
        assert kept.labels == ("B", "C", "D")
        assert kept.mean.tolist() == [65.0, 80.0, 90.0]

    def test_all_removed_is_an_error(self, four_system):
        with pytest.raises(ValueError, match="every university"):
            exclude_below(four_system, 99.0)

    def test_nonfinite_floor(self, four_system):
        with pytest.raises(ValueError, match="finite"):
            exclude_below(four_system, math.inf)
