import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unihet import (
    ClusteredIdeal,
    DesiredIdeal,
    DesiredSpec,
    UniformIdeal,
    UniversityStats,
    hamming,
    preset,
)
from unihet.ideals import UniformSpec, kmeans_1d, preset_names
from unihet.report import real_order

from helpers import (
    exhaustive_kmeans_wcss,
    reference_bin_of,
    reference_group_of,
    reference_kmeans_1d,
)


def _same_clusters(spec, reference):
    """kmeans_1d's clusters equal the reference DP's, bit for bit."""
    got = [(c.labels, c.values, c.center, c.spread) for c in spec.clusters]
    want = [(tuple(str(i) for i in pos), vals, center, spread)
            for pos, vals, center, spread in reference]
    return got == want


class TestKmeans1d:
    def test_two_obvious_groups(self):
        spec = kmeans_1d([50, 51, 52, 70, 71, 72], 2)
        assert [c.values for c in spec.clusters] == [(50.0, 51.0, 52.0), (70.0, 71.0, 72.0)]
        assert spec.wcss() == pytest.approx(4.0, abs=1e-12)

    def test_four_university_means(self, four_system):
        spec = kmeans_1d([s.mean for s in four_system], 2, labels=[s.label for s in four_system])
        low, high = spec.clusters
        assert low.labels == ("A", "B") and high.labels == ("C", "D")
        assert (low.center, high.center) == (62.5, 85.0)
        assert low.spread == pytest.approx(3.5355339059327378, abs=1e-12)
        assert high.spread == pytest.approx(7.0710678118654755, abs=1e-12)

    def test_matches_exhaustive_search(self):
        rng = random.Random(20140601)
        for _ in range(150):
            n = rng.randint(2, 10)
            values = [rng.choice([0, 1, 2, 5, 10, 20, 50]) + rng.random() for _ in range(n)]
            k = rng.randint(1, min(4, len(set(values))))
            assert kmeans_1d(values, k).wcss() == pytest.approx(
                exhaustive_kmeans_wcss(values, k), abs=1e-9
            )

    def test_tie_is_broken_deterministically(self):
        # [0,1,2] admits two optimal 2-splits at cost 0.5 each
        spec = kmeans_1d([0, 1, 2], 2)
        assert [c.values for c in spec.clusters] == [(0.0,), (1.0, 2.0)]
        assert spec.wcss() == pytest.approx(0.5, abs=1e-12)

    def test_singletons_have_zero_spread(self):
        spec = kmeans_1d([10, 40], 2)
        assert all(c.spread == 0.0 for c in spec.clusters)

    def test_input_order_does_not_matter(self):
        a = kmeans_1d([72, 50, 71, 52, 70, 51], 2)
        b = kmeans_1d([50, 51, 52, 70, 71, 72], 2)
        assert [c.values for c in a.clusters] == [c.values for c in b.clusters]

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="between 1 and 2"):
            kmeans_1d([5, 5, 9], 3)
        with pytest.raises(ValueError):
            kmeans_1d([5, 9], 0)
        with pytest.raises(ValueError):
            kmeans_1d([], 1)

    def test_duplicate_values_stay_together(self):
        spec = kmeans_1d([7, 7, 7, 30], 2)
        assert [c.values for c in spec.clusters] == [(7.0, 7.0, 7.0), (30.0,)]

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
        assert _same_clusters(kmeans_1d(values, k), reference_kmeans_1d(values, k))

    def test_matches_reference_on_equidistant_ties(self):
        # evenly spaced values leave many partitions equally good
        for n in range(2, 25):
            values = [float(i % 7) for i in range(n)] + [0.5 * i for i in range(n)]
            for k in range(1, min(6, len(set(values))) + 1):
                assert _same_clusters(kmeans_1d(values, k), reference_kmeans_1d(values, k))

    def test_matches_reference_when_sums_overflow(self):
        # The sum of squares overflows part-way while the plain sum cancels,
        # so one scan mixes infinite and NaN cluster costs; neither may win.
        values = [-1e153 * (1 + i * 1e-3) for i in range(100)]
        values += [1e153 * (1 + i * 1e-3) for i in range(100)]
        for k in range(1, 5):
            assert _same_clusters(kmeans_1d(values, k), reference_kmeans_1d(values, k))

    def test_cluster_of(self):
        spec = kmeans_1d([1, 2, 9], 2, labels=["a", "b", "c"])
        assert spec.cluster_of("c").values == (9.0,)
        with pytest.raises(KeyError):
            spec.cluster_of("zz")


class TestClusteredIdeal:
    def test_four_system_distance(self, four_system):
        real = real_order(four_system)
        ideal, _ = ClusteredIdeal(2).build(four_system)
        assert ideal.pairs() == {("C", "A"), ("C", "B"), ("D", "A"), ("D", "B")}
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
        assert len(ideal.pairs()) == 6  # a complete chain on 4 elements


class TestUniformSpec:
    def test_edges_and_centers(self):
        spec = UniformSpec(4, 60.0, 90.0)
        assert spec.edges() == (60.0, 67.5, 75.0, 82.5, 90.0)
        assert spec.centers() == (63.75, 71.25, 78.75, 86.25)

    def test_bin_assignment_boundaries(self):
        spec = UniformSpec(4, 60.0, 90.0)
        assert spec.bin_of(60.0) == 0
        assert spec.bin_of(67.5) == 1  # internal edges belong to the upper bin
        assert spec.bin_of(89.9) == 3
        assert spec.bin_of(90.0) == 3  # the top endpoint stays in the last bin
        with pytest.raises(ValueError, match="outside"):
            spec.bin_of(59.9)

    @given(
        st.integers(1, 8),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0.001, max_value=100, allow_nan=False),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bins_match_the_scalar_rule_on_and_between_edges(self, k, lo, width, data):
        spec = UniformSpec(k, lo, lo + width)
        edges = spec.edges()
        values = data.draw(st.lists(
            st.one_of(
                st.sampled_from(edges),
                st.floats(min_value=lo, max_value=lo + width, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        ))
        want = [reference_bin_of(edges, x) for x in values]
        assert spec.bins_of(values).tolist() == want
        assert [spec.bin_of(x) for x in values] == want

    def test_values_outside_the_range_rejected(self):
        spec = UniformSpec(4, 60.0, 90.0)
        for x in (59.9, 90.1, float("nan")):
            assert reference_bin_of(spec.edges(), x) is None
            with pytest.raises(ValueError, match="outside"):
                spec.bins_of([70.0, x])

    def test_single_bin(self):
        spec = UniformSpec(1, 50.0, 50.0)
        assert spec.bin_of(50.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformSpec(0, 0.0, 10.0)
        with pytest.raises(ValueError, match="lo < hi"):
            UniformSpec(2, 5.0, 5.0)
        with pytest.raises(ValueError):
            UniformSpec(2, 5.0, 4.0)


class TestUniformIdeal:
    def test_strict_assignment_matches_observed_order(self, four_system):
        real = real_order(four_system)
        ideal, _ = UniformIdeal(4).build(four_system)
        assert hamming(real, ideal) == 0.0

    def test_override_moves_borderline_university(self, four_system):
        real = real_order(four_system)
        ideal, _ = UniformIdeal(4, assignment_override={"B": 1}).build(four_system)
        assert ("B", "A") in ideal.pairs()
        assert hamming(real, ideal) == pytest.approx(1 / 12, abs=1e-9)

    def test_override_validation(self, four_system):
        with pytest.raises(ValueError, match="unknown university"):
            UniformIdeal(4, assignment_override={"Z": 0}).build(four_system)
        with pytest.raises(ValueError, match="outside"):
            UniformIdeal(4, assignment_override={"B": 4}).build(four_system)

    def test_group_table_partitions_universities(self, four_system):
        _, rows = UniformIdeal(4).build(four_system)
        assert [r.count for r in rows] == [2, 0, 1, 1]
        assert rows[1].mean is None and rows[1].std is None
        assert rows[0].desc == "[60;67.5)"
        assert rows[3].desc == "[82.5;90]"


class TestDesiredSpec:
    def test_group_of_respects_boundary_rules(self):
        spec = DesiredSpec((55.0, 70.0), ("upper", "lower"))
        assert spec.group_of(54.9) == 0
        assert spec.group_of(55.0) == 1  # upper rule promotes the tied value
        assert spec.group_of(70.0) == 1  # lower rule keeps it below
        assert spec.group_of(70.1) == 2

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
        spec = DesiredSpec(breaks, rules)
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
        assert [spec.group_of(x) for x in values] == want

    def test_descriptions(self):
        spec = DesiredSpec((55.0, 70.0), ("upper", "lower"))
        assert [spec.group_desc(g) for g in range(3)] == ["<55", "[55;70]", ">70"]
        spec = DesiredSpec((55.0, 65.0, 75.0), ("lower", "lower", "lower"))
        assert [spec.group_desc(g) for g in range(4)] == ["<=55", "(55;65]", "(65;75]", ">75"]

    def test_group_bounds(self):
        spec = DesiredSpec((55.0, 70.0), ("upper", "lower"))
        assert spec.group_bounds(0) == (None, 55.0)
        assert spec.group_bounds(1) == (55.0, 70.0)
        assert spec.group_bounds(2) == (70.0, None)
        with pytest.raises(ValueError):
            spec.group_bounds(3)

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            DesiredSpec((70.0, 55.0), ("lower", "lower"))
        with pytest.raises(ValueError, match="boundary rules"):
            DesiredSpec((55.0, 70.0), ("lower",))
        with pytest.raises(ValueError, match="'lower' or 'upper'"):
            DesiredSpec((55.0,), ("sideways",))
        with pytest.raises(ValueError, match="at least one"):
            DesiredSpec((), ())

    def test_json_round_trip(self, tmp_path):
        spec = preset("healthcare")
        path = tmp_path / "scheme.json"
        spec.to_json(str(path))
        assert DesiredSpec.from_json(str(path)) == spec
        raw = json.loads(path.read_text())
        assert raw["breakpoints"] == [60.0, 65.0, 75.0]
        assert raw["boundary_rule"] == ["upper", "lower", "lower"]
        assert raw["floor"] == 60.0

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "scheme.json"
        preset("healthcare").to_json(str(path))
        assert path.read_text() == (
            '{\n  "breakpoints": [\n    60.0,\n    65.0,\n    75.0\n  ],\n'
            '  "boundary_rule": [\n    "upper",\n    "lower",\n    "lower"\n  ],\n'
            '  "floor": 60.0,\n  "preset_name": "healthcare"\n}\n'
        )
        # no preset name: the key is left out, not written as null
        DesiredSpec((55.0, 70.0), ("lower", "upper")).to_json(str(path))
        assert path.read_text() == (
            '{\n  "breakpoints": [\n    55.0,\n    70.0\n  ],\n'
            '  "boundary_rule": [\n    "lower",\n    "upper"\n  ],\n'
            '  "floor": null\n}\n'
        )

    def test_json_missing_field(self, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text('{"boundary_rule": ["lower"]}')
        with pytest.raises(ValueError, match="scheme.json: .*'breakpoints' field"):
            DesiredSpec.from_json(str(path))

    def test_floor_and_preset_name_are_keyword_only(self):
        # the third positional slot used to be preset_name, so a floor given
        # there was silently taken for a preset name
        with pytest.raises(TypeError):
            DesiredSpec((55.0, 70.0), ("lower", "lower"), 55.0)
        spec = DesiredSpec((55.0, 70.0), ("lower", "lower"), floor=55.0)
        assert spec.floor == 55.0 and spec.preset_name is None
        assert DesiredIdeal(spec).describe() == "desired:breaks=55,70"


class TestDesiredIdeal:
    def test_tier_order(self, four_system):
        ideal, _ = DesiredIdeal(DesiredSpec((75.0,), ("lower",))).build(four_system)
        assert ideal.pairs() == {("C", "A"), ("C", "B"), ("D", "A"), ("D", "B")}
        assert hamming(real_order(four_system), ideal) == pytest.approx(1 / 12, abs=1e-9)

    def test_group_table(self, four_system):
        ideal_spec = DesiredIdeal(preset("electronic"))
        _, rows = ideal_spec.build(four_system)
        assert [r.desc for r in rows] == ["<55", "[55;70]", ">70"]
        assert [r.count for r in rows] == [0, 2, 2]
        assert rows[1].mean == 62.5
        assert rows[2].mean == 85.0
        assert rows[0].mean is None

    def test_describe(self):
        assert DesiredIdeal(preset("economics")).describe() == "desired:preset=economics"
        bare = DesiredIdeal(DesiredSpec((55.0, 70.0), ("lower", "lower")))
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
        assert spec.group_of(75.0) == 2
        assert spec.group_desc(2) == "(65;75]"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("astrology")
