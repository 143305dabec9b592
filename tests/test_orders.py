import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unihet import (
    IntervalOrder,
    ScoreInterval,
    UniversityStats,
    build_interval_order,
    exclude_below,
    hamming,
    interval_mean_std,
    interval_min_max,
)

from helpers import brute_hamming, first_failing_axiom


class TestScoreInterval:
    def test_basic(self):
        iv = ScoreInterval(55.0, 65.0)
        assert iv.width == 10.0
        assert 55.0 in iv and 65.0 in iv and 54.9 not in iv

    def test_degenerate_point_is_allowed(self):
        assert ScoreInterval(3.0, 3.0).width == 0.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ScoreInterval(10.0, 5.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreInterval(math.nan, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ScoreInterval(0.0, math.inf)


class TestUniversityStats:
    def test_from_scores_uses_population_std(self):
        s = UniversityStats.from_scores("X", [55, 60, 65])
        assert s.mean == 60.0
        assert s.std == pytest.approx(4.08248290463863, abs=1e-12)
        assert s.count == 3

    def test_declared_stats_must_match_scores(self):
        with pytest.raises(ValueError, match="disagree"):
            UniversityStats("X", 50.0, 5.0, 2, scores=(40.0, 50.0))

    def test_count_must_match_scores(self):
        with pytest.raises(ValueError, match="count"):
            UniversityStats("X", 50.0, 10.0, 3, scores=(40.0, 60.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            UniversityStats("", 50.0, 5.0, 10)
        with pytest.raises(ValueError):
            UniversityStats("X", 50.0, -1.0, 10)
        with pytest.raises(ValueError):
            UniversityStats("X", 50.0, 5.0, 0)

    def test_interval_mean_std_is_not_clipped(self):
        s = UniversityStats("X", 95.0, 10.0, 5)
        iv = interval_mean_std(s)
        assert (iv.lo, iv.hi) == (85.0, 105.0)

    def test_interval_min_max(self):
        assert interval_min_max([3.0, 9.0, 7.0]) == ScoreInterval(3.0, 9.0)
        with pytest.raises(ValueError):
            interval_min_max([])


class TestIntervalOrder:
    def test_strict_domination_only(self):
        order = build_interval_order(
            [("a", ScoreInterval(0, 2)), ("b", ScoreInterval(2, 4)), ("c", ScoreInterval(5, 6))]
        )
        # touching endpoints (a hi=2, b lo=2) stay incomparable
        assert order.pairs() == {("c", "a"), ("c", "b")}

    def test_pairs_and_neighbourhoods(self, four_system):
        order = build_interval_order(
            [(s.label, interval_mean_std(s)) for s in four_system]
        )
        assert order.pairs() == {("C", "A"), ("C", "B"), ("D", "A"), ("D", "B"), ("D", "C")}
        assert order.above("A") == {"C", "D"}
        assert order.below("C") == {"A", "B"}

    def test_from_pairs_round_trip(self):
        order = IntervalOrder.from_pairs(["a", "b", "c"], [("c", "a"), ("c", "b")])
        assert order.pairs() == {("c", "a"), ("c", "b")}
        with pytest.raises(ValueError, match="unknown label"):
            IntervalOrder.from_pairs(["a"], [("a", "z")])

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

    def test_csv_round_trip(self, tmp_path, worked_pair):
        real, _ = worked_pair
        path = tmp_path / "incidence.csv"
        real.to_csv(str(path))
        assert IntervalOrder.from_csv(str(path)) == real

    def test_csv_rejects_bad_cells(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",a,b\na,0,2\nb,0,0\n")
        with pytest.raises(ValueError, match="0 or 1"):
            IntervalOrder.from_csv(str(path))

    def test_csv_rejects_non_interval_order(self, tmp_path):
        # a > b and c > d with no cross pairs: a 2+2
        path = tmp_path / "two_plus_two.csv"
        path.write_text(",a,b,c,d\na,0,1,0,0\nb,0,0,0,0\nc,0,0,0,1\nd,0,0,0,0\n")
        with pytest.raises(ValueError, match="2\\+2"):
            IntervalOrder.from_csv(str(path))

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
        assert shuffled.pairs() == o2.pairs()
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
