"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import statistics

import numpy as np
import pytest

from unihet import (
    ClusteredIdeal,
    Dataset,
    DesiredIdeal,
    DesiredSpec,
    ScoreInterval,
    UniformIdeal,
    apply_exclusion,
    build_interval_order,
    fill_missing,
    hamming,
    load_csv,
    preset,
    save_csv,
    whatif_exclusion,
)
from unihet.data import SynthSpec, aggregate, synth
from unihet.ideals import kmeans_1d
from unihet.report import real_order

from helpers import (
    brute_hamming,
    exhaustive_kmeans_wcss,
    is_asymmetric,
    is_ferrers,
    is_irreflexive,
    is_transitive,
    reference_wcss,
)


def _ok(n: int, desc: str) -> None:
    print(f"criterion {n}: PASS - {desc}")


def test_criterion_1_worked_five_university_example(worked_pair):
    real, ideal = worked_pair
    expected_real = np.array(
        [
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 1, 1, 0, 0],
        ],
        dtype=bool,
    )
    expected_ideal = np.array(
        [
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 1, 1, 0, 0],
            [1, 1, 1, 0, 0],
        ],
        dtype=bool,
    )
    assert (real.incidence == expected_real).all()
    assert (ideal.incidence == expected_ideal).all()
    assert abs(hamming(real, ideal) - 0.1) <= 1e-12
    _ok(1, "5-university worked example: H = 0.1 within 1e-12")


def test_criterion_2_clustered_k2(four_system):
    assert kmeans_1d([s.mean for s in four_system], 2).tolist() == [0, 0, 1, 1]
    ideal, (low, high) = ClusteredIdeal(2).build(four_system)
    assert (low.mean, high.mean) == (62.5, 85.0)
    assert round(low.lo, 2) == 58.96 and round(low.hi, 2) == 66.04
    assert round(high.lo, 2) == 77.93 and round(high.hi, 2) == 92.07
    real = real_order(four_system)
    assert hamming(real, ideal) == pytest.approx(1 / 12, abs=1e-9)
    _ok(2, "clustered k=2: centers 62.5/85, intervals to 2dp, H = 1/12")


def test_criterion_3_uniform_k4(four_system):
    real = real_order(four_system)
    strict, rows = UniformIdeal(4).build(four_system)
    assert [(r.lo, r.hi) for r in rows] == [(60.0, 67.5), (67.5, 75.0), (75.0, 82.5), (82.5, 90.0)]
    assert [(r.lo + r.hi) / 2 for r in rows] == [63.75, 71.25, 78.75, 86.25]
    h_strict = hamming(real, strict)
    assert h_strict == brute_hamming(real.incidence, strict.incidence)
    assert h_strict == 0.0
    moved, _ = UniformIdeal(4, assignment_override={"B": 1}).build(four_system)
    h_moved = hamming(real, moved)
    assert h_moved == brute_hamming(real.incidence, moved.incidence)
    assert h_moved == pytest.approx(1 / 12, abs=1e-9)
    _ok(3, "uniform k=4: exact edges and centers, strict H = 0, moved-B H = 1/12, both match oracle")


def _grid_intervals(rng: random.Random, n: int) -> list[tuple[str, ScoreInterval]]:
    # coordinates on a 0.001 grid, so shifting by a grid value cannot flip
    # a strict comparison through float rounding
    out = []
    for i in range(n):
        lo = round(rng.uniform(0, 100), 3)
        out.append((f"u{i}", ScoreInterval(lo, round(lo + rng.uniform(0, 30), 3))))
    return out


def test_criterion_4_order_and_metric_properties():
    rng = random.Random(20140815)
    cases = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        ivs1 = _grid_intervals(rng, n)
        o1 = build_interval_order(ivs1)
        o2 = build_interval_order(_grid_intervals(rng, n))
        o3 = build_interval_order(_grid_intervals(rng, n))
        m = o1.incidence
        assert is_irreflexive(m) and is_asymmetric(m)
        assert is_transitive(m) and is_ferrers(m)
        d12, d13, d23 = hamming(o1, o2), hamming(o1, o3), hamming(o2, o3)
        assert 0.0 <= d12 <= 1.0
        assert hamming(o1, o1) == 0.0
        assert d12 == hamming(o2, o1)
        assert d13 <= d12 + d23 + 1e-12
        shift = round(rng.uniform(-50, 50), 3)
        shifted = build_interval_order(
            [
                (lbl, ScoreInterval(round(iv.lo + shift, 3), round(iv.hi + shift, 3)))
                for lbl, iv in ivs1
            ]
        )
        assert o1 == shifted
        cases += 1
    assert cases == 1000
    _ok(4, "1000 random systems (n <= 8): axioms, metric axioms, H range, translation")


def test_criterion_5_kmeans_matches_exhaustive_search():
    rng = random.Random(5150)
    for _ in range(200):
        n = rng.randint(1, 10)
        if rng.random() < 0.5:
            values = [float(rng.choice([0, 1, 2, 3, 5, 10])) for _ in range(n)]
        else:
            values = [round(rng.uniform(0, 100), 2) for _ in range(n)]
        k = rng.randint(1, min(4, len(set(values))))
        got = reference_wcss(values, kmeans_1d(values, k))
        want = exhaustive_kmeans_wcss(values, k)
        assert abs(got - want) <= 1e-9, (values, k, got, want)
    # tie case: both 2-splits of [0, 1, 2] cost 0.5
    assert reference_wcss([0, 1, 2], kmeans_1d([0, 1, 2], 2)) == pytest.approx(0.5, abs=1e-12)
    _ok(5, "kmeans_1d equals exhaustive contiguous search (200 cases, n <= 10, k <= 4)")


def test_criterion_6_imputation_fixture(gap_records, tmp_path):
    kept, report = apply_exclusion(Dataset(gap_records))
    assert report.excluded_universities == ("small", "gappy", "tiny")
    assert report.reasons == {
        "small": ("too_few_students",),
        "gappy": ("too_many_gaps",),
        "tiny": ("too_few_students",),
    }
    kept_relaxed, report_relaxed = apply_exclusion(Dataset(gap_records), min_students=8)
    assert report_relaxed.excluded_universities == ("gappy", "tiny")
    assert {r.university for r in kept_relaxed} == {"big_ok", "small", "clean"}

    filled = fill_missing(kept, seed=42)
    fills = {r.basis: r.score for r in filled if r.imputed}
    assert set(fills) == {"olympiad", "benefit"}
    # max observed is 95 > 100/1.1, so the olympiad band caps at 100
    assert 0.9 * 95 <= fills["olympiad"] <= 100.0
    observed = [r.score for r in kept if r.university == "big_ok" and not r.missing]
    mean = sum(observed) / len(observed)
    sd = (sum((s - mean) ** 2 for s in observed) / len(observed)) ** 0.5
    assert mean - sd < fills["benefit"] < mean + sd

    path_a, path_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_csv(fill_missing(kept, seed=42), path_a, include_imputed=True)
    save_csv(fill_missing(kept, seed=42), path_b, include_imputed=True)
    assert open(path_a, "rb").read() == open(path_b, "rb").read()
    _ok(6, "exclusion sets exact under both rule sets; fills in band; seed-42 stable")


def test_criterion_7_exclusion_whatif(two_tier_dataset):
    spec = DesiredSpec((60.0, 75.0), ("upper", "lower"))
    rows = whatif_exclusion(two_tier_dataset, DesiredIdeal(spec), [0.0, 60.0])
    before, after = rows[0], rows[1]
    assert before.hamming == pytest.approx(2 / 15, abs=1e-12)
    assert after.hamming == 0.0
    assert after.hamming < before.hamming

    stats = aggregate(two_tier_dataset)
    ideal_spec = DesiredIdeal(spec)
    for row, floor in ((before, 0.0), (after, 60.0)):
        kept = [s for s in stats if s.mean >= floor]
        ideal, _ = ideal_spec.build(kept)
        oracle = brute_hamming(real_order(kept).incidence, ideal.incidence)
        assert row.hamming == oracle
    _ok(7, "what-if exclusion: H drops 2/15 -> 0, both values match the oracle")


def test_criterion_8_dataset_round_trip_and_synth(tmp_path, gap_records):
    ds = Dataset(tuple(gap_records), "fixture")
    path = str(tmp_path / "round.csv")
    save_csv(ds, path)
    assert load_csv(path, group_label="fixture").records == ds.records

    spec = SynthSpec(
        n_universities=105,
        students_per_university=(40, 160),
        mean_range=(47.39, 76.97),
        std_range=(2.9, 17.0),
        missing_frac=0.032,
        seed=2014,
        tuition_frac=0.3,
        group_label="electronic-shaped",
    )
    stats = aggregate(synth(spec), drop_missing=True)
    assert len(stats) == 105
    assert all(47.39 <= s.mean <= 76.97 for s in stats)
    assert all(2.9 <= s.std <= 17.0 for s in stats)
    assert all(46.3 <= statistics.median(s.scores) <= 80.0 for s in stats)
    _ok(8, "CSV save/load identity; 105-university synthetic batch inside envelopes")


def test_criterion_9_presets():
    electronic = preset("electronic")
    assert electronic.breakpoints == (55.0, 70.0)
    assert electronic.boundary_rule == ("upper", "lower")
    assert electronic.floor == 55.0
    economics = preset("economics")
    assert economics.breakpoints == (55.0, 65.0, 75.0)
    assert economics.boundary_rule == ("lower", "lower", "lower")
    assert economics.floor == 55.0
    agriculture = preset("agriculture")
    assert agriculture.breakpoints == (50.0, 60.0)
    assert agriculture.boundary_rule == ("upper", "lower")
    assert agriculture.floor == 50.0
    healthcare = preset("healthcare")
    assert healthcare.breakpoints == (60.0, 65.0, 75.0)
    assert healthcare.boundary_rule == ("upper", "lower", "lower")
    assert healthcare.floor == 60.0
    assert healthcare.groups_of([75.0]).tolist() == [2]  # 75 stays in the (65;75] tier
    _ok(9, "all four presets: exact breakpoints, boundary rules and floors")
