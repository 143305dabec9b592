import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unihet import (
    ClusteredIdeal,
    DesiredIdeal,
    UniformIdeal,
    UniversityStats,
    hamming,
    preset,
)
from unihet.ideals import kmeans_1d, parse_ideal, preset_names
from unihet.report import real_order

from helpers import (
    exhaustive_kmeans_wcss,
    pairs,
    reference_bin_of,
    reference_group_of,
    reference_kmeans_1d,
    reference_wcss,
)


def _stats(means):
    """One single-student university per mean, labelled by position."""
    return UniversityStats(map(str, range(len(means))), means, [0.0] * len(means),
                           [1] * len(means))


def _uniform_edges(means, k):
    """Bin edges ``lo + i*w`` for i < k, then ``hi``, over the range of ``means``."""
    lo, hi = min(means), max(means)
    w = (hi - lo) / k
    return [lo + i * w for i in range(k)] + [hi]


def _ranked_by(order, groups):
    """The order ranks exactly the universities in a higher group above."""
    g = np.asarray(groups)
    return np.array_equal(order.incidence, g[:, None] > g[None, :])


def _same_clusters(values, k):
    """kmeans_1d's assignment and ClusteredIdeal's group table equal the
    reference DP's members, centers and spreads, bit for bit, and the order
    ranks every member by its cluster's reference interval."""
    reference = reference_kmeans_1d(values, k)
    groups = kmeans_1d(values, k)
    stats = _stats(values)
    order, rows = ClusteredIdeal(k).build(stats)
    got = [
        (tuple(np.flatnonzero(groups == g).tolist()), r.mean, r.std, r.count)
        for g, r in enumerate(rows)
    ]
    want = [(tuple(sorted(pos)), center, spread, len(pos)) for pos, _, center, spread in reference]
    by_position = {i: (c - sd, c + sd) for pos, _, c, sd in reference for i in pos}
    iv = [by_position[i] for i in range(len(values))]
    ranked = np.array([[lo_i > hi_j for _, hi_j in iv] for lo_i, _ in iv])
    return (
        got == want
        and sum(r.count for r in rows) == len(values)
        and np.array_equal(order.incidence, ranked)
    )


class TestKmeans1d:
    def test_two_obvious_groups(self):
        values = [50, 51, 52, 70, 71, 72]
        groups = kmeans_1d(values, 2)
        assert groups.tolist() == [0, 0, 0, 1, 1, 1]
        assert reference_wcss(values, groups) == pytest.approx(4.0, abs=1e-12)

    def test_four_university_means(self, four_system):
        assert kmeans_1d(four_system.mean, 2).tolist() == [0, 0, 1, 1]
        _, (low, high) = ClusteredIdeal(2).build(four_system)
        assert (low.mean, high.mean) == (62.5, 85.0)
        assert low.std == pytest.approx(3.5355339059327378, abs=1e-12)
        assert high.std == pytest.approx(7.0710678118654755, abs=1e-12)

    def test_matches_exhaustive_search(self):
        rng = random.Random(20140601)
        for _ in range(150):
            n = rng.randint(2, 10)
            values = [rng.choice([0, 1, 2, 5, 10, 20, 50]) + rng.random() for _ in range(n)]
            k = rng.randint(1, min(4, len(set(values))))
            assert reference_wcss(values, kmeans_1d(values, k)) == pytest.approx(
                exhaustive_kmeans_wcss(values, k), abs=1e-9
            )

    def test_tie_is_broken_deterministically(self):
        # [0,1,2] admits two optimal 2-splits at cost 0.5 each
        groups = kmeans_1d([0, 1, 2], 2)
        assert groups.tolist() == [0, 1, 1]
        assert reference_wcss([0, 1, 2], groups) == pytest.approx(0.5, abs=1e-12)

    def test_singletons_have_zero_spread(self):
        _, rows = ClusteredIdeal(2).build(_stats([10, 40]))
        assert [r.std for r in rows] == [0.0, 0.0]

    def test_input_order_does_not_matter(self):
        assert kmeans_1d([72, 50, 71, 52, 70, 51], 2).tolist() == [1, 0, 1, 0, 1, 0]
        assert kmeans_1d([50, 51, 52, 70, 71, 72], 2).tolist() == [0, 0, 0, 1, 1, 1]

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="between 1 and 2"):
            kmeans_1d([5, 5, 9], 3)
        with pytest.raises(ValueError):
            kmeans_1d([5, 9], 0)
        with pytest.raises(ValueError):
            kmeans_1d([], 1)

    @pytest.mark.parametrize("values, cause", [
        ([math.nan, 1.0, 2.0], "non-finite value nan at position 0"),
        ([1.0, math.inf, 2.0], "non-finite value inf at position 1"),
        ([1.0, 2.0, -math.inf], "non-finite value -inf at position 2"),
    ])
    def test_non_finite_values_are_rejected(self, values, cause):
        with pytest.raises(ValueError, match=f"^cannot cluster {cause}$"):
            kmeans_1d(values, 2)

    def test_duplicate_values_stay_together(self):
        assert kmeans_1d([7, 7, 7, 30], 2).tolist() == [0, 0, 0, 1]

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 0.1, 0.2, 0.3]),
                st.floats(min_value=0, max_value=100, allow_nan=False).map(
                    lambda x: round(x, 1)
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference_dp_exactly(self, values, k):
        assume(k <= len(set(values)))
        assert _same_clusters(values, k)

    def test_matches_reference_on_equidistant_ties(self):
        # evenly spaced values leave many partitions equally good
        for n in range(2, 25):
            values = [float(i % 7) for i in range(n)] + [0.5 * i for i in range(n)]
            for k in range(1, min(6, len(set(values))) + 1):
                assert _same_clusters(values, k)

    def test_matches_reference_when_sums_overflow(self):
        # The sum of squares overflows part-way while the plain sum cancels,
        # so one scan mixes infinite and NaN cluster costs; neither may win.
        values = [-1e153 * (1 + i * 1e-3) for i in range(100)]
        values += [1e153 * (1 + i * 1e-3) for i in range(100)]
        for k in range(1, 5):
            assert _same_clusters(values, k)

    def test_cluster_of(self):
        assert kmeans_1d([1, 2, 9], 2).tolist() == [0, 0, 1]


class TestClusteredIdeal:
    def test_four_system_distance(self, four_system):
        real = real_order(four_system)
        ideal, _ = ClusteredIdeal(2).build(four_system)
        assert pairs(ideal) == {("C", "A"), ("C", "B"), ("D", "A"), ("D", "B")}
        assert hamming(real, ideal) == pytest.approx(1 / 12, abs=1e-9)

    def test_group_table(self, four_system):
        _, rows = ClusteredIdeal(2).build(four_system)
        assert [r.count for r in rows] == [2, 2]
        assert rows[0].mean == 62.5 and rows[1].mean == 85.0
        assert rows[0].lo == pytest.approx(58.9644660940673, abs=1e-9)
        assert rows[1].hi == pytest.approx(92.0710678118655, abs=1e-9)
        assert rows[0].desc == "cluster 1"

    def test_k_equal_n_reproduces_linear_order(self, four_system):
        ideal, _ = ClusteredIdeal(4).build(four_system)
        assert len(pairs(ideal)) == 6  # a complete chain on 4 elements

    @pytest.mark.parametrize("family", [ClusteredIdeal, UniformIdeal])
    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_1_is_refused_on_construction(self, family, k):
        with pytest.raises(ValueError) as info:
            family(k)
        assert str(info.value) == f"k must be at least 1, got {k}"

    @pytest.mark.parametrize("family", [ClusteredIdeal, UniformIdeal])
    @pytest.mark.parametrize("k", [2.0, 2.5, True, False, "2", np.float64(2.0), np.bool_(True)],
                             ids=repr)
    def test_k_that_is_not_an_integer_is_refused_on_construction(self, family, k):
        with pytest.raises(ValueError) as info:
            family(k)
        assert str(info.value) == f"k must be an integer, got {k!r}"

    @pytest.mark.parametrize("family", [ClusteredIdeal, UniformIdeal])
    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)], ids=repr)
    def test_integral_numpy_k_is_accepted(self, family, four_system, k):
        ideal = family(k)
        assert ideal.describe() == family(2).describe()
        assert ideal.build(four_system) == family(2).build(four_system)


class TestUniformSpec:
    """The uniform family's bin specification: edges, the half-open bin rule
    and the checks on k and the mean range."""

    def test_edges(self, four_system):
        _, rows = UniformIdeal(4).build(four_system)  # means 60, 65, 80, 90
        assert [r.lo for r in rows] + [rows[-1].hi] == [60.0, 67.5, 75.0, 82.5, 90.0]

    def test_bin_assignment_boundaries(self):
        stats = _stats([60.0, 67.5, 89.9, 90.0])
        order, rows = UniformIdeal(4).build(stats)
        # internal edges belong to the upper bin, the top endpoint to the last
        assert [r.count for r in rows] == [1, 1, 0, 2]
        assert _ranked_by(order, [0, 1, 3, 3])

    @given(
        st.integers(1, 8),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0.001, max_value=100, allow_nan=False),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bins_match_the_scalar_rule_on_and_between_edges(self, k, lo, width, data):
        edges = _uniform_edges([lo, lo + width], k)
        values = data.draw(st.lists(
            st.one_of(
                st.sampled_from(edges),
                st.floats(min_value=lo, max_value=lo + width, allow_nan=False),
            ),
            min_size=max(1, k - 2),  # k bins need k universities
            max_size=20,
        ))
        means = [lo, lo + width] + values
        order, rows = UniformIdeal(k).build(_stats(means))
        want = [reference_bin_of(edges, x) for x in means]
        assert _ranked_by(order, want)
        assert [r.count for r in rows] == [want.count(b) for b in range(k)]

    def test_single_bin(self):
        order, rows = UniformIdeal(1).build(_stats([50.0, 50.0]))
        assert [r.count for r in rows] == [2]
        assert pairs(order) == set()

    def test_validation(self, four_system):
        with pytest.raises(ValueError, match="at least 1"):
            UniformIdeal(0)
        with pytest.raises(ValueError, match="lo < hi"):
            UniformIdeal(2).build(_stats([5.0, 5.0]))
        with pytest.raises(ValueError, match="too wide"):
            UniformIdeal(2).build(_stats([-1e308, 1e308]))
        with pytest.raises(ValueError, match="at least one university"):
            UniformIdeal(2).build(four_system.take([]))

    def test_k_above_the_university_count_is_refused(self, four_system):
        _, rows = UniformIdeal(4).build(four_system)
        assert len(rows) == 4
        with pytest.raises(ValueError) as info:
            UniformIdeal(5).build(four_system)
        assert str(info.value) == "k must be between 1 and 4 (universities), got 5"


class TestUniformIdeal:
    def test_strict_assignment_matches_observed_order(self, four_system):
        real = real_order(four_system)
        ideal, _ = UniformIdeal(4).build(four_system)
        assert hamming(real, ideal) == 0.0

    def test_override_moves_borderline_university(self, four_system):
        real = real_order(four_system)
        for b in (1, np.int64(1), np.int32(1)):  # each kind of integer that k accepts
            ideal, _ = UniformIdeal(4, assignment_override={"B": b}).build(four_system)
            assert ("B", "A") in pairs(ideal)
            assert hamming(real, ideal) == pytest.approx(1 / 12, abs=1e-9)

    def test_override_validation(self, four_system):
        with pytest.raises(ValueError, match="unknown university"):
            UniformIdeal(4, assignment_override={"Z": 0}).build(four_system)
        with pytest.raises(ValueError, match="outside"):
            UniformIdeal(4, assignment_override={"B": 4}).build(four_system)
        with pytest.raises(ValueError, match="outside"):
            UniformIdeal(4, assignment_override={"B": -1}).build(four_system)

    @pytest.mark.parametrize("b", [1.7, 1.0, True, "1", None, np.bool_(True)])
    def test_override_bin_must_be_an_integer(self, four_system, b):
        with pytest.raises(ValueError, match="'B' is not an integer"):
            UniformIdeal(3, assignment_override={"B": b}).build(four_system)

    def test_bins_narrower_than_any_margin_are_strictly_ordered(self):
        # four bins of width 0.0015: each university has its own bin, so the
        # reference order is the complete chain d > c > b > a
        stats = UniversityStats("abcd", [50.0, 50.002, 50.0035, 50.006], [0.0] * 4, [1] * 4)
        ideal, rows = UniformIdeal(4).build(stats)
        assert [r.count for r in rows] == [1, 1, 1, 1]
        assert pairs(ideal) == {
            (hi, lo) for i, hi in enumerate("abcd") for lo in "abcd"[:i]
        }

    def test_group_table_partitions_universities(self, four_system):
        _, rows = UniformIdeal(4).build(four_system)
        assert [r.count for r in rows] == [2, 0, 1, 1]
        assert rows[1].mean is None and rows[1].std is None
        assert rows[0].desc == "[60;67.5)"
        assert rows[3].desc == "[82.5;90]"


class TestDesiredSpec:
    """The tier scheme a ``DesiredIdeal`` holds: tiers, bounds and checks."""

    def test_group_of_respects_boundary_rules(self):
        spec = DesiredIdeal((55.0, 70.0), ("upper", "lower"))
        # the upper rule promotes a tied 55, the lower rule keeps 70 below
        assert spec.groups_of([54.9, 55.0, 70.0, 70.1]).tolist() == [0, 1, 1, 2]

    @given(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False).map(lambda x: round(x, 1)),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_tiers_match_the_scalar_rule_on_and_between_breakpoints(self, breaks, data):
        breaks = tuple(sorted(breaks))
        rules = tuple(data.draw(st.sampled_from(["lower", "upper"])) for _ in breaks)
        spec = DesiredIdeal(breaks, rules)
        values = data.draw(st.lists(
            st.one_of(
                st.sampled_from(breaks),
                st.floats(min_value=-10, max_value=110, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        ))
        want = [reference_group_of(breaks, rules, x) for x in values]
        assert spec.groups_of(values).tolist() == want

    def test_descriptions(self):
        spec = DesiredIdeal((55.0, 70.0), ("upper", "lower"))
        assert [spec.group_desc(g) for g in range(3)] == ["<55", "[55;70]", ">70"]
        spec = DesiredIdeal((55.0, 65.0, 75.0), ("lower", "lower", "lower"))
        assert [spec.group_desc(g) for g in range(4)] == ["<=55", "(55;65]", "(65;75]", ">75"]

    def test_group_bounds(self):
        spec = DesiredIdeal((55.0, 70.0), ("upper", "lower"))
        assert spec.group_bounds(0) == (None, 55.0)
        assert spec.group_bounds(1) == (55.0, 70.0)
        assert spec.group_bounds(2) == (70.0, None)
        with pytest.raises(ValueError):
            spec.group_bounds(3)

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            DesiredIdeal((70.0, 55.0), ("lower", "lower"))
        with pytest.raises(ValueError, match="boundary rules"):
            DesiredIdeal((55.0, 70.0), ("lower",))
        with pytest.raises(ValueError, match="'lower' or 'upper'"):
            DesiredIdeal((55.0,), ("sideways",))
        with pytest.raises(ValueError, match="at least one"):
            DesiredIdeal((), ())

    def test_floor_and_preset_name_are_keyword_only(self):
        # the third positional slot used to be preset_name, so a floor given
        # there was silently taken for a preset name
        with pytest.raises(TypeError):
            DesiredIdeal((55.0, 70.0), ("lower", "lower"), 55.0)
        spec = DesiredIdeal((55.0, 70.0), ("lower", "lower"), floor=55.0)
        assert spec.floor == 55.0 and spec.preset_name is None
        assert spec.describe() == "desired:breaks=55,70"


class TestDesiredIdeal:
    def test_tier_order(self, four_system):
        ideal, _ = DesiredIdeal((75.0,), ("lower",)).build(four_system)
        assert pairs(ideal) == {("C", "A"), ("C", "B"), ("D", "A"), ("D", "B")}
        assert hamming(real_order(four_system), ideal) == pytest.approx(1 / 12, abs=1e-9)

    def test_group_table(self, four_system):
        ideal_spec = preset("electronic")
        _, rows = ideal_spec.build(four_system)
        assert [r.desc for r in rows] == ["<55", "[55;70]", ">70"]
        assert [r.count for r in rows] == [0, 2, 2]
        assert rows[1].mean == 62.5
        assert rows[2].mean == 85.0
        assert rows[0].mean is None

    def test_describe(self):
        assert preset("economics").describe() == "desired:preset=economics"
        bare = DesiredIdeal((55.0, 70.0), ("lower", "lower"))
        assert bare.describe() == "desired:breaks=55,70"


class TestPresets:
    def test_known_names(self):
        assert preset_names() == ("agriculture", "economics", "electronic", "healthcare")

    def test_electronic(self):
        spec = preset("electronic")
        assert spec.breakpoints == (55.0, 70.0)
        assert spec.boundary_rule == ("upper", "lower")
        assert spec.floor == 55.0

    def test_economics(self):
        spec = preset("economics")
        assert spec.breakpoints == (55.0, 65.0, 75.0)
        assert spec.boundary_rule == ("lower", "lower", "lower")
        assert spec.floor == 55.0

    def test_agriculture(self):
        spec = preset("agriculture")
        assert spec.breakpoints == (50.0, 60.0)
        assert spec.boundary_rule == ("upper", "lower")
        assert spec.floor == 50.0

    def test_healthcare_75_stays_in_third_tier(self):
        spec = preset("healthcare")
        assert spec.breakpoints == (60.0, 65.0, 75.0)
        assert spec.boundary_rule == ("upper", "lower", "lower")
        assert spec.floor == 60.0
        assert spec.groups_of([75.0]).tolist() == [2]
        assert spec.group_desc(2) == "(65;75]"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("astrology")

    def test_parse_returns_the_preset_itself(self):
        assert parse_ideal("desired:preset=healthcare") is preset("healthcare")


class TestGrammar:
    """``parse_ideal`` reads back exactly what each family's ``describe()``
    writes, for every ideal ``parse_ideal`` can return."""

    _parsed = st.one_of(
        st.integers(1, 10**12).map(ClusteredIdeal),
        st.integers(1, 10**12).map(UniformIdeal),
        st.sampled_from(preset_names()).map(preset),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5,
                 unique=True).map(lambda bs: DesiredIdeal(sorted(bs), ("lower",) * len(bs))),
    )

    @given(_parsed)
    @settings(max_examples=300, deadline=None)
    def test_describe_round_trips(self, ideal):
        assert parse_ideal(ideal.describe()) == ideal

    @pytest.mark.parametrize("text", [
        "desired:breaks=55,70",
        "desired:breaks=55.1234567,70",
        "desired:breaks=1234567",
        "desired:breaks=-0.5,0.1,1e+16,1e+300",
    ])
    def test_canonical_text_is_kept(self, text):
        assert parse_ideal(text).describe() == text

    @pytest.mark.parametrize("ideal", [
        DesiredIdeal((55, 70), ("upper", "lower")),
        dataclasses.replace(preset("electronic"), breakpoints=(50.0, 60.0)),
        UniformIdeal(4, {"A": 0}),
    ], ids=["upper-rule", "edited-preset", "override"])
    def test_ideals_without_text_describe_as_their_repr(self, ideal):
        # the grammar text of each would read back as another scheme
        assert ideal.describe() == repr(ideal)

    def test_text_ignores_what_does_not_change_the_order(self):
        edited = dataclasses.replace(preset("electronic"), floor=40.0)
        assert edited.describe() == "desired:preset=electronic"
        named = DesiredIdeal((55, 70), ("lower", "lower"), preset_name="electronic")
        assert named.describe() == "desired:breaks=55,70"
        assert UniformIdeal(4, {}).describe() == "uniform:k=4"


class TestFamiliesMatchReferences:
    """Each family's order and group table against the scalar references in
    ``tests/helpers.py``, on random means and k."""

    _means = st.lists(
        st.one_of(
            st.sampled_from([40.0, 55.0, 60.0, 65.0, 70.0, 75.0]),
            st.floats(min_value=0, max_value=100, allow_nan=False).map(lambda x: round(x, 2)),
        ),
        min_size=1,
        max_size=30,
    )

    @given(_means, st.data())
    @settings(max_examples=200, deadline=None)
    def test_uniform(self, means, data):
        k = data.draw(st.integers(1, min(7, len(means))))  # k bins need k universities
        assume(k == 1 or min(means) < max(means))
        order, rows = UniformIdeal(k).build(_stats(means))
        edges = _uniform_edges(means, k)
        bins = [reference_bin_of(edges, x) for x in means]
        assert _ranked_by(order, bins)
        assert [(r.lo, r.hi) for r in rows] == list(zip(edges, edges[1:]))
        assert [r.count for r in rows] == [bins.count(b) for b in range(k)]
        assert sum(r.count for r in rows) == len(means)

    @given(_means, st.sampled_from(preset_names()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_desired(self, means, name, data):
        spec = preset(name)
        if data.draw(st.booleans()):  # or random breakpoints and rules
            breaks = tuple(sorted(data.draw(
                st.lists(st.sampled_from([50.0, 55.0, 60.0, 65.0, 70.0, 75.0]),
                         min_size=1, max_size=4, unique=True)
            )))
            rules = tuple(data.draw(st.sampled_from(["lower", "upper"])) for _ in breaks)
            spec = DesiredIdeal(breaks, rules)
        order, rows = spec.build(_stats(means))
        tiers = [reference_group_of(spec.breakpoints, spec.boundary_rule, x) for x in means]
        assert _ranked_by(order, tiers)
        assert Counter(tiers) == Counter({g: r.count for g, r in enumerate(rows) if r.count})
        assert sum(r.count for r in rows) == len(means)

    @given(_means, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_clustered(self, means, k):
        assume(k <= len(set(means)))
        assert _same_clusters(means, k)

