import csv
import statistics

import pytest

from unihet import (
    Dataset,
    DatasetError,
    StudentRecord,
    SynthSpec,
    aggregate,
    load_csv,
    save_csv,
    summarize,
    synth,
    write_stats_csv,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,72.5\n"
            "U1,state_funded,olympiad,\n"
            "U1,tuition_based,targeted,0\n"
            "U2,state_funded,competition,55\n",
        )
        ds = load_csv(path, group_label="demo")
        assert ds.group_label == "demo"
        assert ds.n_records == 4
        assert ds.records[0].score == 72.5
        assert ds.records[1].missing  # empty cell
        assert ds.records[2].missing  # zero cell
        assert ds.universities() == ("U1", "U2")

    def test_unknown_basis_folds_into_other(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score\nU1,state_funded,quota2014,60\n",
        )
        assert load_csv(path).records[0].basis == "other"

    def test_unknown_form_is_an_error_with_line_number(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,60\n"
            "U1,evening,competition,60\n",
        )
        with pytest.raises(DatasetError, match=":3:"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "uni,form,basis,score\nU1,state_funded,competition,60\n")
        with pytest.raises(DatasetError, match="header"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetError, match="empty"):
            load_csv(_write(tmp_path, ""))

    def test_bad_score_cell(self, tmp_path):
        path = _write(tmp_path, "university_id,form,basis,score\nU1,state_funded,competition,abc\n")
        with pytest.raises(DatasetError, match="not a number"):
            load_csv(path)

    def test_out_of_range_score(self, tmp_path):
        path = _write(tmp_path, "university_id,form,basis,score\nU1,state_funded,competition,101\n")
        with pytest.raises(DatasetError, match=":2:"):
            load_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = _write(tmp_path, "university_id,form,basis,score\nU1,state_funded,competition\n")
        with pytest.raises(DatasetError, match="expected 4 fields"):
            load_csv(path)

    def test_imputed_column(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score,imputed\n"
            "U1,state_funded,competition,60,0\n"
            "U1,state_funded,olympiad,88.25,1\n",
        )
        ds = load_csv(path)
        assert not ds.records[0].imputed
        assert ds.records[1].imputed
        bad = _write(tmp_path, "university_id,form,basis,score,imputed\nU1,state_funded,competition,60,yes\n", "bad.csv")
        with pytest.raises(DatasetError, match="imputed flag"):
            load_csv(bad)

    def test_slash_in_university_names_the_line(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,60\n"
            "U1/state_funded,state_funded,competition,60\n",
        )
        with pytest.raises(DatasetError, match=r":3: .*must not contain '/'"):
            load_csv(path)

    def test_quoted_line_break_counts_as_a_line(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,60\n"
            '"U\n2",state_funded,competition,60\n'
            "U3,evening,competition,60\n",
        )
        with pytest.raises(DatasetError, match=r"data\.csv:5: unknown study form 'evening'"):
            load_csv(path)

    def test_undecodable_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"university_id,form,basis,score\n"
            b"U1,state_funded,competition,60\n"
            b"U1,state_funded,competition,61\n"
            b"Universit\xe9,state_funded,competition,62\n"
        )
        with pytest.raises(DatasetError, match=r"latin1\.csv:4: byte 0xe9 is not UTF-8"):
            load_csv(str(path))

    def test_csv_error_names_the_line(self, tmp_path):
        huge = "x" * (csv.field_size_limit() + 1)
        path = _write(
            tmp_path,
            f"university_id,form,basis,score\nU1,state_funded,competition,60\nU1,{huge},competition,60\n",
        )
        with pytest.raises(DatasetError, match=r"data\.csv:3: field larger than field limit"):
            load_csv(path)

    def test_utf8_round_trip(self, tmp_path):
        ds = Dataset((StudentRecord("Université", "state_funded", "competition", 60.0),), "utf8")
        path = str(tmp_path / "utf8.csv")
        save_csv(ds, path)
        assert load_csv(path, "utf8") == ds

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score\nU1,state_funded,competition,60\n\n",
        )
        assert load_csv(path).n_records == 1


class TestSaveCsv:
    def test_round_trip_identity(self, tmp_path, gap_records):
        ds = Dataset(tuple(gap_records), "fixture")
        path = str(tmp_path / "out.csv")
        save_csv(ds, path)
        again = load_csv(path, group_label="fixture")
        assert again.records == ds.records
        assert again.group_label == ds.group_label

    def test_imputed_column_appears_when_needed(self, tmp_path):
        plain = Dataset((StudentRecord("U", "state_funded", "competition", 60.0),))
        path = str(tmp_path / "plain.csv")
        save_csv(plain, path)
        assert open(path).readline().strip() == "university_id,form,basis,score"
        marked = Dataset(
            (StudentRecord("U", "state_funded", "olympiad", 90.0, imputed=True),)
        )
        path = str(tmp_path / "marked.csv")
        save_csv(marked, path)
        assert open(path).readline().strip() == "university_id,form,basis,score,imputed"
        assert load_csv(path).records == marked.records

    def test_float_precision_survives(self, tmp_path):
        score = 51.835034190722745
        ds = Dataset((StudentRecord("U", "state_funded", "benefit", score),))
        path = str(tmp_path / "prec.csv")
        save_csv(ds, path)
        assert load_csv(path).records[0].score == score


class TestAggregate:
    def test_combined(self, four_system_dataset):
        stats = aggregate(four_system_dataset)
        assert [s.label for s in stats] == ["A", "B", "C", "D"]
        a = stats[0]
        assert (a.mean, a.std, a.count) == (60.0, 5.0, 2)
        assert a.scores == (55.0, 65.0)
        assert a.form is None

    def test_split_by_form(self):
        records = (
            StudentRecord("U1", "state_funded", "competition", 50.0),
            StudentRecord("U1", "state_funded", "competition", 70.0),
            StudentRecord("U1", "tuition_based", "competition", 40.0),
            StudentRecord("U2", "state_funded", "competition", 80.0),
        )
        with pytest.warns(UserWarning, match="U2/tuition_based"):
            stats = aggregate(Dataset(records), split_by_form=True)
        labels = [s.label for s in stats]
        assert labels == ["U1/state_funded", "U1/tuition_based", "U2/state_funded"]
        assert stats[0].mean == 60.0 and stats[0].form == "state_funded"

    def test_missing_scores_raise_without_drop(self):
        records = (
            StudentRecord("U1", "state_funded", "competition", 50.0),
            StudentRecord("U1", "state_funded", "olympiad", None),
        )
        with pytest.raises(ValueError, match="missing"):
            aggregate(Dataset(records))
        stats = aggregate(Dataset(records), drop_missing=True)
        assert stats[0].count == 1

    def test_university_with_no_scores_is_skipped(self):
        records = (
            StudentRecord("U1", "state_funded", "competition", 50.0),
            StudentRecord("U1", "state_funded", "competition", 60.0),
            StudentRecord("U2", "state_funded", "olympiad", None),
        )
        with pytest.warns(UserWarning, match="U2"):
            stats = aggregate(Dataset(records), drop_missing=True)
        assert [s.label for s in stats] == ["U1"]

    def test_nothing_left_is_an_error(self):
        records = (StudentRecord("U1", "state_funded", "olympiad", None),)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no universities"):
                aggregate(Dataset(records), drop_missing=True)


class TestSummarize:
    def test_envelopes(self, four_system_dataset):
        summary = summarize(aggregate(four_system_dataset))
        assert summary.n_universities == 4
        assert summary.n_students == 8
        assert summary.mean_range == (60.0, 90.0)
        assert summary.std_range == (3.0, 5.0)
        assert summary.median_range == (60.0, 90.0)

    def test_median_needs_raw_scores(self, four_system):
        assert summarize(four_system).median_range is None

    def test_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(5, (10, 20), (50.0, 70.0), (2.0, 8.0), missing_frac=0.1, seed=11)
        assert synth(spec).records == synth(spec).records

    def test_exact_statistics_per_university(self):
        spec = SynthSpec(8, (9, 30), (40.0, 80.0), (0.0, 10.0), seed=4)
        for s in aggregate(synth(spec)):
            assert 40.0 <= s.mean <= 80.0
            assert 0.0 <= s.std <= 10.0
            target_mean = statistics.fmean(s.scores)
            assert s.mean == pytest.approx(target_mean, abs=1e-9)

    def test_summary_stays_inside_the_requested_envelope(self):
        spec = SynthSpec(
            30, (20, 60), (47.39, 76.97), (2.9, 17.0), missing_frac=0.032, seed=9,
            tuition_frac=0.25,
        )
        ds = synth(spec)
        summary = summarize(aggregate(ds, drop_missing=True))
        assert summary.n_universities == 30
        assert 47.39 <= summary.mean_range[0] <= summary.mean_range[1] <= 76.97
        assert 2.9 <= summary.std_range[0] <= summary.std_range[1] <= 17.0

    def test_missing_fraction_is_respected(self):
        spec = SynthSpec(10, (20, 20), (50.0, 60.0), (1.0, 5.0), missing_frac=0.25, seed=2)
        ds = synth(spec)
        per_uni = {}
        for r in ds.records:
            total, miss = per_uni.get(r.university, (0, 0))
            per_uni[r.university] = (total + 1, miss + r.missing)
        for total, miss in per_uni.values():
            assert total == 20 and miss == 5

    def test_gaps_attach_to_forms_with_observed_scores(self):
        spec = SynthSpec(
            6, (10, 15), (50.0, 60.0), (1.0, 4.0), missing_frac=0.2, seed=8,
            tuition_frac=0.5,
        )
        ds = synth(spec)
        observed_forms = {
            (r.university, r.form) for r in ds.records if not r.missing
        }
        for r in ds.records:
            if r.missing:
                assert (r.university, r.form) in observed_forms

    def test_tuition_frac_one(self):
        spec = SynthSpec(3, (5, 8), (50.0, 60.0), (1.0, 3.0), seed=1, tuition_frac=1.0)
        assert all(r.form == "tuition_based" for r in synth(spec).records)

    def test_infeasible_spec(self):
        with pytest.raises(DatasetError, match="could not place"):
            synth(SynthSpec(2, (3, 3), (99.0, 100.0), (30.0, 30.0), seed=0))

    def test_validation(self):
        with pytest.raises(DatasetError):
            SynthSpec(0, (5, 10), (50.0, 60.0), (1.0, 2.0))
        with pytest.raises(DatasetError):
            SynthSpec(3, (1, 10), (50.0, 60.0), (1.0, 2.0))
        with pytest.raises(DatasetError):
            SynthSpec(3, (5, 10), (0.0, 60.0), (1.0, 2.0))
        with pytest.raises(DatasetError):
            SynthSpec(3, (5, 10), (50.0, 60.0), (-1.0, 2.0))
        with pytest.raises(DatasetError):
            SynthSpec(3, (5, 10), (50.0, 60.0), (1.0, 2.0), missing_frac=1.0)


class TestWriteStatsCsv:
    def test_mean_std_intervals(self, tmp_path, four_system_dataset):
        stats = aggregate(four_system_dataset)
        path = tmp_path / "stats.csv"
        write_stats_csv(stats, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "university_id,form,mean,std,count,interval_lo,interval_hi"
        assert lines[1] == "A,all,60.0,5.0,2,55.0,65.0"

    def test_min_max_intervals(self, tmp_path, four_system_dataset):
        stats = aggregate(four_system_dataset)
        path = tmp_path / "stats.csv"
        write_stats_csv(stats, str(path), interval_method="min_max")
        lines = path.read_text().strip().splitlines()
        assert lines[4] == "D,all,90.0,5.0,2,85.0,95.0"

    def test_min_max_requires_scores(self, tmp_path, four_system):
        with pytest.raises(ValueError, match="raw scores"):
            write_stats_csv(four_system, str(tmp_path / "x.csv"), interval_method="min_max")

    def test_unknown_method(self, tmp_path, four_system):
        with pytest.raises(ValueError, match="interval method"):
            write_stats_csv(four_system, str(tmp_path / "x.csv"), interval_method="median")
