import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unihet import (
    Dataset,
    IntervalOrder,
    ScoreInterval,
    StudentRecord,
    UniversityStats,
    build_interval_order,
    hamming,
    interval_of,
)
from unihet.data import aggregate
from unihet.orders import exclude_below

from unihet.orders import _mean_square_deviation, _moments

from helpers import (
    brute_hamming,
    first_failing_axiom,
    order_from_pairs,
    pairs,
    reference_mean_pstdev,
    reference_pvariance,
    reference_stdev,
)


class TestScoreInterval:
    def test_basic(self):
        iv = ScoreInterval(55.0, 65.0)
        assert (iv.lo, iv.hi) == (55.0, 65.0)

    def test_degenerate_point_is_allowed(self):
        iv = ScoreInterval(3.0, 3.0)
        assert iv.lo == iv.hi == 3.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ScoreInterval(10.0, 5.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreInterval(math.nan, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ScoreInterval(0.0, math.inf)


class TestUniversityStats:
    def test_aggregate_uses_population_std(self):
        records = [StudentRecord("X", "state_funded", "competition", x) for x in (55, 60, 65)]
        (s,) = aggregate(Dataset(records))
        assert s.mean == 60.0
        assert s.std == pytest.approx(4.08248290463863, abs=1e-12)
        assert s.count == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="^university label must be non-empty$"):
            UniversityStats("", 50.0, 5.0, 10)
        with pytest.raises(ValueError):
            UniversityStats("X", 50.0, -1.0, 10)
        with pytest.raises(ValueError):
            UniversityStats("X", 50.0, 5.0, 0)

    def test_interval_mean_std_is_not_clipped(self):
        s = UniversityStats("X", 95.0, 10.0, 5)
        iv = interval_of(s, "mean_std")
        assert (iv.lo, iv.hi) == (85.0, 105.0)

    def test_interval_min_max(self):
        s = UniversityStats("X", 6.0, 2.5, 3, score_range=ScoreInterval(3.0, 9.0))
        assert interval_of(s, "min_max") == ScoreInterval(3.0, 9.0)


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


class TestExactMoments:
    """The exact-integer kernel against the ``statistics`` functions, bit for bit."""

    @given(xs=_SAMPLES)
    @settings(max_examples=400, deadline=None)
    def test_mean_and_population_std(self, xs):
        assert _outcome(lambda v: _moments(v, 0), xs) == _outcome(reference_mean_pstdev, xs)

    @given(xs=_SAMPLES)
    @settings(max_examples=400, deadline=None)
    def test_mean_square_deviation_about_the_float_mean(self, xs):
        got = _outcome(lambda v: _mean_square_deviation(v, statistics.fmean(v)), xs)
        assert got == _outcome(reference_pvariance, xs)

    def test_overflowing_deviation_is_inf_without_a_warning(self):
        # 1.7e308 - (-1.7e308) overflows in the subtraction, before any square
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _mean_square_deviation([1.7e308], -1.7e308) == math.inf
            assert _mean_square_deviation([1e300, -1e300], 0.0) == math.inf

    @given(xs=_SAMPLES.filter(lambda v: len(v) > 1))
    @settings(max_examples=400, deadline=None)
    def test_sample_std(self, xs):
        assert _outcome(lambda v: _moments(v, 1), xs) == _outcome(
            lambda v: (statistics.fmean(v), reference_stdev(v)), xs
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="^values must be finite$"):
            _moments([50.0, bad], 0)
        with pytest.raises(ValueError, match="^interval bounds must be finite"):
            UniversityStats("X", 50.0, 0.0, 2, ScoreInterval(50.0, bad))


class TestIntervalOrder:
    def test_strict_domination_only(self):
        order = build_interval_order(
            [("a", ScoreInterval(0, 2)), ("b", ScoreInterval(2, 4)), ("c", ScoreInterval(5, 6))]
        )
        # touching endpoints (a hi=2, b lo=2) stay incomparable
        assert pairs(order) == {("c", "a"), ("c", "b")}

    def test_pairs_and_neighbourhoods(self, four_system):
        order = build_interval_order(
            [(s.label, interval_of(s, "mean_std")) for s in four_system]
        )
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
            IntervalOrder(["a", "b"], m)

    def test_rejects_symmetric_pair(self):
        m = np.zeros((2, 2), dtype=bool)
        m[0, 1] = m[1, 0] = True
        with pytest.raises(ValueError, match="asymmetric"):
            IntervalOrder(["a", "b"], m)

    def test_rejects_intransitive(self):
        m = np.zeros((3, 3), dtype=bool)
        m[0, 1] = m[1, 2] = True
        with pytest.raises(ValueError, match="transitive"):
            IntervalOrder(["a", "b", "c"], m)

    def test_rejects_two_plus_two(self):
        # a>b and c>d with no cross pairs: transitive but not an interval order
        m = np.zeros((4, 4), dtype=bool)
        m[0, 1] = m[2, 3] = True
        with pytest.raises(ValueError, match="2\\+2"):
            IntervalOrder(["a", "b", "c", "d"], m)

    def test_rejects_shape_and_label_problems(self):
        with pytest.raises(ValueError, match="square"):
            IntervalOrder(["a"], np.zeros((1, 2), dtype=bool))
        with pytest.raises(ValueError, match="labels"):
            IntervalOrder(["a", "a"], np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="2x2"):
            IntervalOrder(["a", "b", "c"], np.zeros((2, 2), dtype=bool))

    def test_immutable(self, worked_pair):
        real, _ = worked_pair
        with pytest.raises(AttributeError):
            real.labels = ()
        with pytest.raises(ValueError):
            real.incidence[0, 1] = True

    def test_equality(self, worked_pair):
        real, ideal = worked_pair
        assert real == real
        assert real != ideal
        again = IntervalOrder(real.labels, real.incidence)
        assert real == again

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_interval_order([])


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
            assert IntervalOrder(labels, m).incidence.tolist() == m.tolist()
        else:
            with pytest.raises(ValueError) as exc:
                IntervalOrder(labels, m)
            assert _AXIOM_MESSAGES[failing] in str(exc.value)

    def test_large_order_validates_and_planted_two_plus_two_is_rejected(self):
        rng = np.random.default_rng(2000)
        n = 2000
        lo = rng.uniform(0.0, 100.0, n)
        hi = lo + rng.uniform(0.0, 10.0, n)
        labels = [f"u{i}" for i in range(n)]
        m = lo[:, None] > hi[None, :]
        assert IntervalOrder(labels, m).n == n
        # Cut universities 0..3 off from everyone, then relate them as
        # 0 > 1 and 2 > 3 only: still transitive, but a 2+2.
        m[:4, :] = False
        m[:, :4] = False
        m[0, 1] = m[2, 3] = True
        with pytest.raises(ValueError, match="2\\+2 found"):
            IntervalOrder(labels, m)


@st.composite
def small_orders(draw, n):
    coords = st.integers(0, 10)
    pairs = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
    return build_interval_order(
        [(f"u{i}", ScoreInterval(lo, lo + w)) for i, (lo, w) in enumerate(pairs)]
    )


class TestHamming:
    def test_worked_example(self, worked_pair):
        real, ideal = worked_pair
        assert hamming(real, ideal) == pytest.approx(0.1, abs=1e-12)
        assert hamming(real, ideal) == brute_hamming(real.incidence, ideal.incidence)

    def test_identical_orders(self, worked_pair):
        real, _ = worked_pair
        assert hamming(real, real) == 0.0

    def test_maximal_distance(self):
        chain = build_interval_order(
            [("a", ScoreInterval(0, 1)), ("b", ScoreInterval(2, 3))]
        )
        flipped = IntervalOrder(["a", "b"], chain.incidence.T)
        assert hamming(chain, flipped) == 1.0

    def test_permuted_labels_are_aligned(self):
        # Same matrix, labels listed in another order: x is on top in the
        # first order and y in the second, so 4 of the 6 cells differ.
        top, low = ScoreInterval(4, 5), ScoreInterval(0, 1)
        o1 = build_interval_order([("x", top), ("y", low), ("z", low)])
        o2 = build_interval_order([("y", top), ("x", low), ("z", low)])
        assert np.array_equal(o1.incidence, o2.incidence)
        assert hamming(o1, o2) == 4 / 6
        assert hamming(o2, o1) == 4 / 6

    def test_different_label_sets_rejected(self):
        o1 = build_interval_order([("a", ScoreInterval(0, 1)), ("b", ScoreInterval(2, 3))])
        o2 = build_interval_order([("x", ScoreInterval(0, 1)), ("y", ScoreInterval(2, 3))])
        with pytest.raises(ValueError, match="different universities"):
            hamming(o1, o2)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_relabelling_by_permutation_keeps_the_distance(self, data):
        n = data.draw(st.integers(2, 7))
        o1, o2 = data.draw(small_orders(n)), data.draw(small_orders(n))
        perm = data.draw(st.permutations(range(n)))
        shuffled = IntervalOrder(
            [o2.labels[p] for p in perm], o2.incidence[np.ix_(perm, perm)]
        )
        assert pairs(shuffled) == pairs(o2)
        assert hamming(o1, shuffled) == hamming(o1, o2)
        assert hamming(shuffled, o1) == hamming(o2, o1)
        assert hamming(o2, shuffled) == 0.0

    def test_size_mismatch(self, worked_pair):
        real, _ = worked_pair
        two = build_interval_order([("a", ScoreInterval(0, 1)), ("b", ScoreInterval(2, 3))])
        with pytest.raises(ValueError, match="different sizes"):
            hamming(real, two)

    def test_single_university_undefined(self):
        one = build_interval_order([("a", ScoreInterval(0, 1))])
        with pytest.raises(ValueError, match="fewer than 2"):
            hamming(one, one)


class TestExcludeBelow:
    def test_keeps_threshold_value(self, four_system):
        kept = exclude_below(four_system, 65.0)
        assert [s.label for s in kept] == ["B", "C", "D"]

    def test_all_removed_is_an_error(self, four_system):
        with pytest.raises(ValueError, match="every university"):
            exclude_below(four_system, 99.0)

    def test_nonfinite_floor(self, four_system):
        with pytest.raises(ValueError, match="finite"):
            exclude_below(four_system, math.inf)
