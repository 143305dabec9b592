import dataclasses
import math
import random
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import form_stats, reference_fill_missing, reference_mean_pstdev
from unihet import (
    Dataset,
    StudentRecord,
    apply_exclusion,
    build_interval_order,
    fill_missing,
    missingness_summary,
)
import unihet.imputation
import unihet.orders
from unihet.data import BASES, FORMS, aggregate


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

    @pytest.mark.parametrize("university", [" U1", "U1 ", "\xa0U1", " "])
    def test_padded_university(self, university):
        # the loader strips every cell, so a padded id would not survive save -> load
        with pytest.raises(ValueError, match="must not start or end with whitespace"):
            StudentRecord(university, "state_funded", "competition", 60.0)

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
        fs = form_stats([50.0, 60.0, 70.0])
        assert fs.mean == 60.0
        assert fs.std == pytest.approx(8.16496580927726, abs=1e-12)
        assert fs.std**2 == pytest.approx(66.66666666666667, abs=1e-12)
        assert fs.fill_lo == pytest.approx(51.83503419072274, abs=1e-12)
        assert fs.fill_hi == pytest.approx(68.16496580927726, abs=1e-12)
        assert fs.max_obs == 70.0

    @given(scores=st.lists(st.integers(1, 1000).map(lambda k: k / 10), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_std_has_the_bits_of_pstdev(self, scores):
        fs = form_stats(scores)
        assert [v.hex() for v in (fs.mean, fs.std)] == [
            v.hex() for v in reference_mean_pstdev(scores)]

    @given(scores=st.lists(st.integers(1, 1000).map(lambda k: k / 10), min_size=1, max_size=60))
    @example(scores=[50.0, 50.00000000000001])
    @settings(max_examples=100, deadline=None)
    def test_fill_band_is_the_observed_interval(self, scores):
        # one university, one form, no gaps: the band a gap would draw from and the
        # university's mean +- std interval are the same two floats
        fs = form_stats(scores)
        order = build_interval_order(aggregate(Dataset(
            [StudentRecord("U", "state_funded", "competition", x) for x in scores])))
        assert (fs.fill_lo.hex(), fs.fill_hi.hex()) == (
            float(order.lo[0]).hex(), float(order.hi[0]).hex())

    def test_olympiad_band_uncapped(self):
        fs = form_stats([60.0, 70.0])
        assert fs.olympiad_lo == pytest.approx(63.0)
        assert fs.olympiad_hi == pytest.approx(77.0)

    def test_olympiad_band_capped_at_100(self):
        fs = form_stats([90.0, 95.0])
        assert fs.olympiad_lo == pytest.approx(85.5)
        assert fs.olympiad_hi == 100.0

    def test_cap_threshold_sits_just_above_90_9(self):
        assert form_stats([90.9]).olympiad_hi < 100.0
        assert form_stats([91.0]).olympiad_hi == 100.0

    def test_only_requested_form_counts(self):
        recs = [
            StudentRecord("X", "state_funded", "competition", 40.0),
            StudentRecord("X", "tuition_based", "competition", 80.0),
            StudentRecord("X", "tuition_based", "olympiad", None),
        ]
        # fill_missing hands form_stats one (university, form) group: the
        # tuition gap draws from 0.9 * 80 .. 1.1 * 80, whatever the other form holds
        filled = fill_missing(Dataset(recs), seed=0).records
        assert 72.0 <= filled[2].score <= 88.0
        assert form_stats([80.0]).mean == 80.0

    def test_errors(self):
        with pytest.raises(ValueError, match="^at least one observed score is required$"):
            form_stats([])


class TestApplyExclusion:
    def test_default_thresholds(self, gap_records):
        kept, report = apply_exclusion(Dataset(gap_records))
        assert report.excluded_universities == ("small", "gappy", "tiny")
        assert report.n_excluded == 3
        assert report.excluded_student_count == 36
        assert report.reasons == {
            "small": ("too_few_students",),
            "gappy": ("too_many_gaps",),
            "tiny": ("too_few_students",),
        }
        assert {r.university for r in kept} == {"big_ok", "clean"}
        assert kept.universities() == ("big_ok", "clean")
        assert kept.n_records == 36

    def test_relaxed_size_threshold(self, gap_records):
        kept, report = apply_exclusion(Dataset(gap_records), min_students=8)
        assert report.excluded_universities == ("gappy", "tiny")
        assert {r.university for r in kept} == {"big_ok", "small", "clean"}

    def test_missing_share_boundary_is_inclusive(self):
        # 1 gap out of 4 records hits the 25% limit exactly
        recs = [StudentRecord("U", "state_funded", "competition", s) for s in (50, 60, 70)]
        recs.append(StudentRecord("U", "state_funded", "olympiad", None))
        _, report = apply_exclusion(Dataset(recs), min_students=1)
        assert report.excluded_universities == ("U",)
        assert report.reasons["U"] == ("too_many_gaps",)

    def test_both_reasons_can_apply(self):
        recs = [
            StudentRecord("U", "state_funded", "competition", 50.0),
            StudentRecord("U", "state_funded", "olympiad", None),
        ]
        _, report = apply_exclusion(Dataset(recs))
        assert report.reasons["U"] == ("too_few_students", "too_many_gaps")

    def test_parameter_validation(self, gap_records):
        ds = Dataset(gap_records)
        with pytest.raises(ValueError, match="min_students"):
            apply_exclusion(ds, min_students=0)
        with pytest.raises(ValueError, match="max_missing_frac"):
            apply_exclusion(ds, max_missing_frac=0.0)
        with pytest.raises(ValueError, match="max_missing_frac"):
            apply_exclusion(ds, max_missing_frac=1.5)

    def test_record_order_is_preserved(self, gap_records):
        kept, _ = apply_exclusion(Dataset(gap_records))
        originals = [r for r in gap_records if r.university in ("big_ok", "clean")]
        assert kept.records == tuple(originals)
        assert kept == Dataset(originals)


class TestFillMissing:
    def test_fills_land_in_their_bands(self, gap_records):
        kept, _ = apply_exclusion(Dataset(gap_records))
        filled = fill_missing(kept, seed=42)
        assert filled.n_records == kept.n_records
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
        kept, _ = apply_exclusion(Dataset(gap_records))
        a = fill_missing(kept, seed=42)
        b = fill_missing(kept, seed=42)
        assert a == b
        c = fill_missing(kept, seed=43)
        assert a != c

    def test_observed_records_pass_through_unchanged(self, gap_records):
        kept, _ = apply_exclusion(Dataset(gap_records))
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
            r.university: r.score for r in fill_missing(Dataset(u1 + u2), seed=5) if r.imputed
        }
        fills_b = {
            r.university: r.score for r in fill_missing(Dataset(u2 + u1), seed=5) if r.imputed
        }
        assert fills_a == fills_b

    def test_zero_variance_fills_with_the_mean(self):
        recs = [StudentRecord("U", "state_funded", "competition", 64.0) for _ in range(3)]
        recs.append(StudentRecord("U", "state_funded", "targeted", None))
        filled = fill_missing(Dataset(recs), seed=1)
        assert filled.records[-1].score == 64.0

    def test_band_narrower_than_an_ulp_fills_with_the_mean(self):
        # The std is positive, but mean +- std rounds back to the mean:
        # no float lies strictly inside the band, so redrawing would never end.
        recs = [StudentRecord("U", "state_funded", "competition", 50.0) for _ in range(20)]
        recs.append(StudentRecord("U", "state_funded", "competition", 50.00000000000001))
        recs.append(StudentRecord("U", "state_funded", "benefit", None))
        stats = form_stats([50.0] * 20 + [50.00000000000001])
        assert stats.std > 0.0
        assert stats.fill_lo == stats.fill_hi == stats.mean

        def redraws_forever(signum, frame):
            raise TimeoutError("fill_missing is still redrawing after 10 s")

        previous = signal.signal(signal.SIGALRM, redraws_forever)
        signal.alarm(10)
        try:
            filled = fill_missing(Dataset(recs), seed=0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert filled.records[-1].score == stats.mean
        assert filled.records[-1].imputed

    def test_olympiad_fill_uses_its_own_form(self):
        recs = [
            StudentRecord("U", "state_funded", "competition", 90.0),
            StudentRecord("U", "tuition_based", "competition", 50.0),
            StudentRecord("U", "tuition_based", "olympiad", None),
        ]
        filled = fill_missing(Dataset(recs), seed=3)
        fill = next(r for r in filled if r.imputed)
        # band follows the tuition form (max 50), not the state-funded 90
        assert 45.0 <= fill.score <= 55.0

    def test_fills_never_leave_the_score_domain(self):
        recs = [StudentRecord("U", "state_funded", "competition", s) for s in (1.0, 2.0, 3.0)]
        recs += [StudentRecord("U", "state_funded", "targeted", None) for _ in range(50)]
        for seed in range(5):
            for r in fill_missing(Dataset(recs), seed=seed):
                assert 0.0 < r.score <= 100.0

    def test_starved_group_is_an_error(self):
        recs = [
            StudentRecord("U", "state_funded", "competition", 50.0),
            StudentRecord("U", "tuition_based", "olympiad", None),
        ]
        with pytest.raises(ValueError, match="U/tuition_based"):
            fill_missing(Dataset(recs), seed=0)

    def test_empty_input(self):
        assert fill_missing(Dataset(), seed=0) == Dataset()

    @pytest.mark.parametrize("batch_rows, draw_chunk", [
        pytest.param(2, unihet.imputation._DRAW_CHUNK, id="2"),
        pytest.param(4096, unihet.imputation._DRAW_CHUNK, id="4096"),
        pytest.param(4096, 1, id="4096-draw_chunk1"),
        pytest.param(2, 2, id="2-draw_chunk2"),
    ])
    def test_narrow_bands_redraw_as_the_reference_does(self, monkeypatch, batch_rows, draw_chunk):
        # open bands holding 1, 2 and 3 floats reject most draws; next to them an empty
        # band, a single observed score and an olympiad band capped at 100, in batches of
        # whole groups split after about batch_rows rows, drawn draw_chunk gaps at a time
        # (chunks of 1 and 2 put a chunk edge between redrawn gaps)
        def ulps(x, k):
            for _ in range(k):
                x = math.nextafter(x, math.inf)
            return x

        observed = {
            ("T1", "state_funded"): [50.0, ulps(50.0, 2)],  # 1 float inside the band
            ("T1", "tuition_based"): [64.0, 64.0, ulps(64.0, 3)],  # 2 floats
            ("T2", "state_funded"): [0.5, ulps(0.5, 3)],  # 3 floats
            ("S", "state_funded"): [70.0],
            ("C", "state_funded"): [95.0, 90.0],
            ("Z", "tuition_based"): [64.0] * 3,
        }
        records = [
            StudentRecord(u, form, "competition", score)
            for (u, form), scores in observed.items() for score in scores
        ]
        records += [StudentRecord(u, form, basis, None)
                    for u, form in observed for basis in ("benefit", "olympiad", "targeted")]
        records += [StudentRecord("T1", "state_funded", "other", None)] * 6
        random.Random(0).shuffle(records)
        monkeypatch.setattr(unihet.orders, "_BATCH_ROWS", batch_rows)
        monkeypatch.setattr(unihet.imputation, "_DRAW_CHUNK", draw_chunk)

        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                CountingRandom.calls += 1
                return super().random()

        monkeypatch.setattr(random, "Random", CountingRandom)
        n_draws = 6 + 14  # the olympiad gaps, and the other gaps in non-empty bands
        redrawn = 0
        for seed in range(20):
            got = list(fill_missing(Dataset(records), seed))
            calls, CountingRandom.calls = CountingRandom.calls, 0
            assert got == reference_fill_missing(records, seed)
            assert CountingRandom.calls == calls  # the reference drew as many numbers
            CountingRandom.calls = 0
            redrawn += calls - n_draws
        assert redrawn > 20  # 190 redraws over these 20 seeds

    def test_group_larger_than_a_batch(self):
        # a group of 9 000 rows, 30 of them gaps, is more than one batch's rows: its batch
        # holds it whole, after a batch of the groups before it
        records = [StudentRecord("B", "state_funded", "competition", 40.0 + (i % 500) / 10)
                   for i in range(9000)]
        records[::300] = [StudentRecord("B", "state_funded", "benefit", None)] * 30
        records += [StudentRecord(u, form, basis, score)
                    for u in ("A", "C") for form in FORMS
                    for basis, score in (("competition", 60.0), ("competition", 61.5),
                                         ("olympiad", None), ("other", None))]
        for seed in (0, 1):
            assert list(fill_missing(Dataset(records), seed)) == reference_fill_missing(
                records, seed)

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
                return list(fill())
            except ValueError as exc:
                return str(exc)

        got = outcome(lambda: fill_missing(Dataset(records), seed))
        assert got == outcome(lambda: reference_fill_missing(records, seed))


class TestMissingnessSummary:
    def test_counts_and_fractions(self, gap_records):
        summary = missingness_summary(Dataset(gap_records))
        assert summary.n_total == 72
        assert summary.n_missing == 7
        assert summary.overall == pytest.approx(7 / 72)
        assert summary.per_university["gappy"] == 0.25
        assert summary.per_university["clean"] == 0.0

    def test_high_above_five_percent(self, gap_records):
        assert missingness_summary(Dataset(gap_records)).high

    def test_not_high_at_exactly_five_percent(self):
        recs = [StudentRecord("U", "state_funded", "competition", 50.0) for _ in range(19)]
        recs.append(StudentRecord("U", "state_funded", "olympiad", None))
        summary = missingness_summary(Dataset(recs))
        assert summary.overall == 0.05 and not summary.high

    def test_empty_input(self):
        summary = missingness_summary(Dataset())
        assert summary.overall == 0.0 and summary.n_total == 0
