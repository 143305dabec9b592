import dataclasses
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_fill_missing, reference_pvariance
from unihet import (
    BASES,
    FORMS,
    StudentRecord,
    apply_exclusion,
    fill_missing,
    form_stats,
    missingness_summary,
)


class TestStudentRecord:
    def test_zero_score_means_missing(self):
        r = StudentRecord("U", "state_funded", "competition", 0)
        assert r.score is None and r.missing

    def test_none_score(self):
        assert StudentRecord("U", "state_funded", "olympiad", None).missing

    def test_score_bounds(self):
        assert StudentRecord("U", "state_funded", "competition", 100.0).score == 100.0
        with pytest.raises(ValueError, match=r"\(0, 100\]"):
            StudentRecord("U", "state_funded", "competition", 100.5)
        with pytest.raises(ValueError, match=r"\(0, 100\]"):
            StudentRecord("U", "state_funded", "competition", -3.0)

    def test_unknown_form_and_basis(self):
        with pytest.raises(ValueError, match="study form"):
            StudentRecord("U", "evening", "competition", 50.0)
        with pytest.raises(ValueError, match="admission basis"):
            StudentRecord("U", "state_funded", "lottery", 50.0)

    def test_empty_university(self):
        with pytest.raises(ValueError, match="non-empty"):
            StudentRecord("", "state_funded", "competition", 50.0)

    def test_slash_in_university(self):
        # "A/state_funded" would collide with a per-form label of university "A"
        with pytest.raises(ValueError, match="must not contain '/'"):
            StudentRecord("A/state_funded", "state_funded", "competition", 50.0)

    def test_frozen_value_semantics(self):
        a = StudentRecord("U", "state_funded", "competition", 0.0)
        b = StudentRecord("U", "state_funded", "competition", None)
        assert a == b and hash(a) == hash(b)
        c = dataclasses.replace(a, score=75.5, imputed=True)
        assert (c.score, c.imputed, a.score) == (75.5, True, None)
        assert a != c and hash(a) != hash(c)
        for field, value in (("score", 60.0), ("university", "V")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(c, field, value)
        assert c.score == 75.5 and c.university == "U"
        assert not hasattr(c, "__dict__")  # slots: ~100 k records per cohort


class TestFormStats:
    def test_mean_and_mean_squared_deviation(self):
        recs = [StudentRecord("X", "state_funded", "competition", s) for s in (50, 60, 70)]
        recs.append(StudentRecord("X", "state_funded", "olympiad", None))
        fs = form_stats(recs, "state_funded")
        assert fs.count == 4 and fs.missing == 1 and fs.n_observed == 3
        assert fs.mean == 60.0
        assert fs.variance == pytest.approx(66.66666666666667, abs=1e-12)
        assert fs.fill_lo == pytest.approx(51.83503419072274, abs=1e-12)
        assert fs.fill_hi == pytest.approx(68.16496580927726, abs=1e-12)
        assert (fs.min_obs, fs.max_obs) == (50.0, 70.0)

    @given(scores=st.lists(st.integers(1, 1000).map(lambda k: k / 10), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_variance_has_the_bits_of_pvariance_about_the_mean(self, scores):
        recs = [StudentRecord("X", "tuition_based", "competition", s) for s in scores]
        fs = form_stats(recs, "tuition_based")
        assert fs.variance.hex() == reference_pvariance(scores).hex()

    def test_olympiad_band_uncapped(self):
        recs = [StudentRecord("X", "state_funded", "competition", s) for s in (60, 70)]
        fs = form_stats(recs, "state_funded")
        assert fs.olympiad_lo == pytest.approx(63.0)
        assert fs.olympiad_hi == pytest.approx(77.0)
        assert not fs.olympiad_capped

    def test_olympiad_band_capped_at_100(self):
        recs = [StudentRecord("X", "state_funded", "competition", s) for s in (90, 95)]
        fs = form_stats(recs, "state_funded")
        assert fs.olympiad_lo == pytest.approx(85.5)
        assert fs.olympiad_hi == 100.0
        assert fs.olympiad_capped

    def test_cap_threshold_sits_just_above_90_9(self):
        recs = [StudentRecord("X", "state_funded", "competition", 90.9)]
        assert not form_stats(recs, "state_funded").olympiad_capped
        recs = [StudentRecord("X", "state_funded", "competition", 91.0)]
        assert form_stats(recs, "state_funded").olympiad_capped

    def test_only_requested_form_counts(self):
        recs = [
            StudentRecord("X", "state_funded", "competition", 40.0),
            StudentRecord("X", "tuition_based", "competition", 80.0),
        ]
        assert form_stats(recs, "state_funded").mean == 40.0
        assert form_stats(recs, "tuition_based").mean == 80.0

    def test_errors(self):
        recs = [
            StudentRecord("X", "state_funded", "competition", 50.0),
            StudentRecord("Y", "state_funded", "competition", 60.0),
        ]
        with pytest.raises(ValueError, match="single university"):
            form_stats(recs, "state_funded")
        with pytest.raises(ValueError, match="no records"):
            form_stats(recs[:1], "tuition_based")
        gaps = [StudentRecord("X", "state_funded", "olympiad", None)]
        with pytest.raises(ValueError, match="missing"):
            form_stats(gaps, "state_funded")
        with pytest.raises(ValueError, match="study form"):
            form_stats(recs[:1], "evening")


class TestApplyExclusion:
    def test_default_thresholds(self, gap_records):
        kept, report = apply_exclusion(gap_records)
        assert report.excluded_universities == ("small", "gappy", "tiny")
        assert report.n_excluded == 3
        assert report.excluded_student_count == 36
        assert report.reasons == {
            "small": ("too_few_students",),
            "gappy": ("too_many_gaps",),
            "tiny": ("too_few_students",),
        }
        assert {r.university for r in kept} == {"big_ok", "clean"}
        assert len(kept) == 36

    def test_relaxed_size_threshold(self, gap_records):
        kept, report = apply_exclusion(gap_records, min_students=8)
        assert report.excluded_universities == ("gappy", "tiny")
        assert {r.university for r in kept} == {"big_ok", "small", "clean"}

    def test_missing_share_boundary_is_inclusive(self):
        # 1 gap out of 4 records hits the 25% limit exactly
        recs = [StudentRecord("U", "state_funded", "competition", s) for s in (50, 60, 70)]
        recs.append(StudentRecord("U", "state_funded", "olympiad", None))
        _, report = apply_exclusion(recs, min_students=1)
        assert report.excluded_universities == ("U",)
        assert report.reasons["U"] == ("too_many_gaps",)

    def test_both_reasons_can_apply(self):
        recs = [
            StudentRecord("U", "state_funded", "competition", 50.0),
            StudentRecord("U", "state_funded", "olympiad", None),
        ]
        _, report = apply_exclusion(recs)
        assert report.reasons["U"] == ("too_few_students", "too_many_gaps")

    def test_parameter_validation(self, gap_records):
        with pytest.raises(ValueError, match="min_students"):
            apply_exclusion(gap_records, min_students=0)
        with pytest.raises(ValueError, match="max_missing_frac"):
            apply_exclusion(gap_records, max_missing_frac=0.0)
        with pytest.raises(ValueError, match="max_missing_frac"):
            apply_exclusion(gap_records, max_missing_frac=1.5)

    def test_record_order_is_preserved(self, gap_records):
        kept, _ = apply_exclusion(gap_records)
        originals = [r for r in gap_records if r.university in ("big_ok", "clean")]
        assert kept == originals


class TestFillMissing:
    def test_fills_land_in_their_bands(self, gap_records):
        kept, _ = apply_exclusion(gap_records)
        filled = fill_missing(kept, seed=42)
        assert len(filled) == len(kept)
        assert not any(r.missing for r in filled)
        by_basis = {r.basis: r for r in filled if r.imputed}
        assert set(by_basis) == {"olympiad", "benefit"}
        # olympiad: max observed is 95, so the band caps at 100
        assert 85.5 <= by_basis["olympiad"].score <= 100.0
        # regular fill: open one-standard-deviation band around the form mean
        scores = [r.score for r in kept if r.university == "big_ok" and not r.missing]
        mean = sum(scores) / len(scores)
        sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))
        assert mean - sd < by_basis["benefit"].score < mean + sd

    def test_same_seed_same_fills(self, gap_records):
        kept, _ = apply_exclusion(gap_records)
        a = fill_missing(kept, seed=42)
        b = fill_missing(kept, seed=42)
        assert a == b
        c = fill_missing(kept, seed=43)
        assert a != c

    def test_observed_records_pass_through_unchanged(self, gap_records):
        kept, _ = apply_exclusion(gap_records)
        filled = fill_missing(kept, seed=7)
        for before, after in zip(kept, filled):
            if not before.missing:
                assert before == after
            else:
                assert after.imputed and not after.missing
                assert (after.university, after.form, after.basis) == (
                    before.university, before.form, before.basis,
                )

    def test_group_order_does_not_change_fills(self):
        u1 = [StudentRecord("U1", "state_funded", "competition", s) for s in (50, 60, 70)]
        u1.append(StudentRecord("U1", "state_funded", "benefit", None))
        u2 = [StudentRecord("U2", "state_funded", "competition", s) for s in (70, 80, 90)]
        u2.append(StudentRecord("U2", "state_funded", "olympiad", None))
        fills_a = {
            r.university: r.score for r in fill_missing(u1 + u2, seed=5) if r.imputed
        }
        fills_b = {
            r.university: r.score for r in fill_missing(u2 + u1, seed=5) if r.imputed
        }
        assert fills_a == fills_b

    def test_zero_variance_fills_with_the_mean(self):
        recs = [StudentRecord("U", "state_funded", "competition", 64.0) for _ in range(3)]
        recs.append(StudentRecord("U", "state_funded", "targeted", None))
        filled = fill_missing(recs, seed=1)
        assert filled[-1].score == 64.0

    def test_olympiad_fill_uses_its_own_form(self):
        recs = [
            StudentRecord("U", "state_funded", "competition", 90.0),
            StudentRecord("U", "tuition_based", "competition", 50.0),
            StudentRecord("U", "tuition_based", "olympiad", None),
        ]
        filled = fill_missing(recs, seed=3)
        fill = next(r for r in filled if r.imputed)
        # band follows the tuition form (max 50), not the state-funded 90
        assert 45.0 <= fill.score <= 55.0

    def test_fills_never_leave_the_score_domain(self):
        recs = [StudentRecord("U", "state_funded", "competition", s) for s in (1.0, 2.0, 3.0)]
        recs += [StudentRecord("U", "state_funded", "targeted", None) for _ in range(50)]
        for seed in range(5):
            for r in fill_missing(recs, seed=seed):
                assert 0.0 < r.score <= 100.0

    def test_starved_group_is_an_error(self):
        recs = [
            StudentRecord("U", "state_funded", "competition", 50.0),
            StudentRecord("U", "tuition_based", "olympiad", None),
        ]
        with pytest.raises(ValueError, match="U/tuition_based"):
            fill_missing(recs, seed=0)

    def test_empty_input(self):
        assert fill_missing([], seed=0) == []

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["U1", "U2", "U3", "U10"]),
                st.sampled_from(FORMS),
                st.sampled_from(BASES),
                st.one_of(
                    st.none(),
                    # repeats give zero-variance forms; 95 and 99.5 cap olympiad bands
                    st.sampled_from([50.0, 64.0, 95.0, 99.5]),
                    st.floats(min_value=0.5, max_value=100.0),
                ),
            ),
            max_size=40,
        ),
        seed=st.integers(0, 2**32),
    )
    @example(  # a starved form next to a fillable one: both name only the starved one
        rows=[
            ("U2", "tuition_based", "olympiad", None),
            ("U1", "state_funded", "competition", 60.0),
            ("U1", "state_funded", "benefit", None),
            ("U2", "state_funded", "competition", 70.0),
        ],
        seed=0,
    )
    @example(  # zero variance, capped and uncapped olympiad bands, shuffled universities
        rows=[
            ("U2", "state_funded", "targeted", None),
            ("U1", "tuition_based", "olympiad", None),
            ("U2", "state_funded", "competition", 64.0),
            ("U1", "tuition_based", "competition", 95.0),
            ("U2", "state_funded", "olympiad", None),
            ("U1", "state_funded", "competition", 50.0),
            ("U2", "state_funded", "competition", 64.0),
            ("U1", "state_funded", "olympiad", None),
        ],
        seed=1,
    )
    def test_matches_rescanning_reference(self, rows, seed):
        records = [StudentRecord(*row) for row in rows]

        def outcome(fill):
            try:
                return fill(records, seed)
            except ValueError as exc:
                return str(exc)

        assert outcome(fill_missing) == outcome(reference_fill_missing)


class TestMissingnessSummary:
    def test_counts_and_fractions(self, gap_records):
        with pytest.warns(UserWarning):
            summary = missingness_summary(gap_records)
        assert summary.n_total == 72
        assert summary.n_missing == 7
        assert summary.overall == pytest.approx(7 / 72)
        assert summary.per_university["gappy"] == 0.25
        assert summary.per_university["clean"] == 0.0

    def test_warns_above_five_percent(self, gap_records):
        with pytest.warns(UserWarning, match="missing"):
            summary = missingness_summary(gap_records)
        assert summary.high

    def test_no_warning_at_exactly_five_percent(self):
        recs = [StudentRecord("U", "state_funded", "competition", 50.0) for _ in range(19)]
        recs.append(StudentRecord("U", "state_funded", "olympiad", None))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = missingness_summary(recs)
        assert summary.overall == 0.05 and not summary.high

    def test_empty_input(self):
        summary = missingness_summary([])
        assert summary.overall == 0.0 and summary.n_total == 0
