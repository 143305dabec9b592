import csv
import dataclasses
import math
import statistics
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unihet import (
    Dataset,
    DatasetError,
    StudentRecord,
    load_csv,
    plot_rows,
    save_csv,
    write_plot,
)
import unihet.data
import unihet.orders
from unihet.data import BASES, FORMS, aggregate
from unihet.orders import build_interval_order

from helpers import SynthSpec, reference_mean_pstdev, reference_save_csv, synth


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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
        ds = load_csv(path)
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
        ds = Dataset((StudentRecord("Université", "state_funded", "competition", 60.0),))
        path = str(tmp_path / "utf8.csv")
        save_csv(ds, path)
        assert load_csv(path) == ds

    _FORMS_CAUSE = "unknown study form 'evening'; expected one of ('state_funded', 'tuition_based')"

    @pytest.mark.parametrize("row, cause", [
        ("U1,state_funded,competition", "expected 5 fields, got 3"),
        ("U1,state_funded,competition,60,0,x", "expected 5 fields, got 6"),
        ("U1,state_funded,competition,abc,0", "score 'abc' is not a number"),
        ("U1,state_funded,competition,101,0", "score must lie in (0, 100], got 101.0"),
        ("U1,state_funded,competition,-5.5,0", "score must lie in (0, 100], got -5.5"),
        ("U1,state_funded,competition,nan,0", "score must lie in (0, 100], got nan"),
        ("U1,state_funded,competition,inf,0", "score must lie in (0, 100], got inf"),
        (" ,state_funded,competition,60,0", "university identifier must be non-empty"),
        ("U1/x,state_funded,competition,60,0", "university identifier 'U1/x' must not contain '/'"),
        ("U1,evening,competition,60,0", _FORMS_CAUSE),
        ("U1,state_funded,competition,60,yes", "imputed flag must be 0 or 1, got 'yes'"),
        # two faults in one row: the first in the order count, number, flag, id, form, range
        ("U1,evening,competition,abc", "expected 5 fields, got 4"),
        ("U1,evening,competition,abc,0", "score 'abc' is not a number"),
        ("U1,state_funded,competition,abc,2", "score 'abc' is not a number"),
        (",state_funded,competition,60,2", "imputed flag must be 0 or 1, got '2'"),
        ("U1,evening,competition,60,2", "imputed flag must be 0 or 1, got '2'"),
        ("U1,state_funded,competition,101,2", "imputed flag must be 0 or 1, got '2'"),
        (",evening,competition,60,0", "university identifier must be non-empty"),
        ("U1/x,evening,competition,60,0", "university identifier 'U1/x' must not contain '/'"),
        ("U1/x,state_funded,competition,101,0", "university identifier 'U1/x' must not contain '/'"),
        ("U1,evening,competition,101,0", _FORMS_CAUSE),
    ])
    @pytest.mark.parametrize("first", ["U0", '"U0"'], ids=["bulk", "quoted"])
    def test_fault_messages(self, tmp_path, first, row, cause):
        # a quote anywhere sends the whole file to the row checker at once
        path = _write(
            tmp_path,
            f"university_id,form,basis,score,imputed\n{first},state_funded,competition,60,0\n{row}\n",
        )
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:3: {cause}"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write(
            tmp_path,
            "university_id,form,basis,score\nU1,state_funded,competition,60\n\n",
        )
        assert load_csv(path).n_records == 1


_SAVED_IDS = st.one_of(
    st.sampled_from(["U1", "a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", "МГУ"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=10).filter(
        lambda u: u == u.strip() and "/" not in u
    ),
    st.integers(200, 300).map(lambda n: "é" * n),  # over 256 bytes
)
_TENTH = st.integers(1, 1000).map(lambda t: t / 10)
_SAVED_SCORES = st.one_of(
    st.none(),
    _TENTH,
    st.tuples(_TENTH, st.sampled_from([0.0, math.inf])).map(lambda p: math.nextafter(*p)).filter(
        lambda x: x <= 100.0
    ),
    st.sampled_from([0.30000000000000004, 1e-05, 5e-324, 100.0]),
    st.floats(min_value=5e-324, max_value=100.0),
)


class TestSaveCsv:
    @given(
        rows=st.lists(
            st.tuples(_SAVED_IDS, st.sampled_from(FORMS), st.sampled_from(BASES), _SAVED_SCORES,
                      st.booleans()),
            max_size=30,
        ),
        include_imputed=st.booleans(),
        chunk=st.sampled_from([1, 3, 1024]),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_dataset_is_written_as_csv_writer_writes(self, tmp_path_factory, rows,
                                                           include_imputed, chunk):
        records = [StudentRecord(*row) for row in rows]
        path = tmp_path_factory.mktemp("save") / "out.csv"
        with mock.patch.object(unihet.data, "_SAVE_CHUNK", chunk):  # rows over several writes
            save_csv(Dataset(records), str(path), include_imputed=include_imputed)
        assert path.read_bytes() == reference_save_csv(records, include_imputed)

    def test_round_trip_identity(self, tmp_path, gap_records):
        ds = Dataset(tuple(gap_records))
        path = str(tmp_path / "out.csv")
        save_csv(ds, path)
        again = load_csv(path)
        assert again.records == ds.records

    def test_all_zero_flags_save_without_the_column(self, tmp_path):
        path = tmp_path / "flags.csv"
        path.write_bytes(
            b"university_id,form,basis,score,imputed\r\nU,state_funded,competition,60.0,0\r\n"
        )
        ds = load_csv(str(path))
        save_csv(ds, str(tmp_path / "default.csv"))
        save_csv(ds, str(tmp_path / "kept.csv"), include_imputed=True)
        assert (tmp_path / "default.csv").read_bytes() == (
            b"university_id,form,basis,score\r\nU,state_funded,competition,60.0\r\n"
        )
        assert (tmp_path / "kept.csv").read_bytes() == path.read_bytes()

    def test_imputed_column_appears_when_needed(self, tmp_path):
        plain = Dataset((StudentRecord("U", "state_funded", "competition", 60.0),))
        path = str(tmp_path / "plain.csv")
        save_csv(plain, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().strip() == "university_id,form,basis,score"
        marked = Dataset(
            (StudentRecord("U", "state_funded", "olympiad", 90.0, imputed=True),)
        )
        path = str(tmp_path / "marked.csv")
        save_csv(marked, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().strip() == "university_id,form,basis,score,imputed"
        assert load_csv(path).records == marked.records

    def test_float_precision_survives(self, tmp_path):
        score = 51.835034190722745
        ds = Dataset((StudentRecord("U", "state_funded", "benefit", score),))
        path = str(tmp_path / "prec.csv")
        save_csv(ds, path)
        assert load_csv(path).records[0].score == score

    @pytest.mark.parametrize("include_imputed", [False, True])
    def test_bytes_are_what_csv_writer_writes(self, tmp_path, include_imputed):
        ids = ["plain", "a,b", 'say "hi"', "line\nbreak", "carriage\rreturn", "both\r\nends"]
        scores = [None, 60.5, 51.835034190722745, 100.0, 1e-05]
        records = tuple(
            StudentRecord(u, form, basis, score, imputed=(i + j) % 3 == 0)
            for i, u in enumerate(ids)
            for j, (form, basis, score) in enumerate(
                zip(("state_funded", "tuition_based") * 3, ("olympiad", "other", "benefit"), scores)
            )
        )
        ds = Dataset(records)
        path = tmp_path / "quoted.csv"
        save_csv(ds, str(path), include_imputed=include_imputed)
        assert path.read_bytes() == reference_save_csv(records, include_imputed)

        again = load_csv(str(path))
        if include_imputed:
            assert again == ds
        else:
            assert again.records == tuple(dataclasses.replace(r, imputed=False) for r in records)
        save_csv(again, str(tmp_path / "again.csv"), include_imputed=include_imputed)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def _rows(stats):
    """Each row of a statistics table as (label, form, mean, std, count, low, high)."""
    return list(zip(stats.labels, stats.forms or (None,) * len(stats), stats.mean.tolist(),
                    stats.std.tolist(), stats.count.tolist(), stats.low.tolist(),
                    stats.high.tolist()))


class TestAggregate:
    def test_combined(self, four_system_dataset):
        stats = aggregate(four_system_dataset)
        assert stats.labels == ("A", "B", "C", "D")
        assert _rows(stats)[0] == ("A", None, 60.0, 5.0, 2, 55.0, 65.0)
        assert stats.forms is None

    def test_split_by_form(self):
        records = (
            StudentRecord("U1", "state_funded", "competition", 50.0),
            StudentRecord("U1", "state_funded", "competition", 70.0),
            StudentRecord("U1", "tuition_based", "competition", 40.0),
            StudentRecord("U2", "state_funded", "competition", 80.0),
        )
        with pytest.warns(UserWarning, match="U2/tuition_based"):
            stats = aggregate(Dataset(records), split_by_form=True)
        assert stats.labels == ("U1/state_funded", "U1/tuition_based", "U2/state_funded")
        assert stats.forms == ("state_funded", "tuition_based", "state_funded")
        assert stats.mean[0] == 60.0

    def test_missing_scores_raise_without_drop(self):
        records = (
            StudentRecord("U1", "state_funded", "competition", 50.0),
            StudentRecord("U1", "state_funded", "olympiad", None),
        )
        with pytest.raises(ValueError, match="missing"):
            aggregate(Dataset(records))
        stats = aggregate(Dataset(records), drop_missing=True)
        assert stats.count.tolist() == [1]

    def test_university_with_no_scores_is_skipped(self):
        records = (
            StudentRecord("U1", "state_funded", "competition", 50.0),
            StudentRecord("U1", "state_funded", "competition", 60.0),
            StudentRecord("U2", "state_funded", "olympiad", None),
        )
        with pytest.warns(UserWarning, match="U2"):
            stats = aggregate(Dataset(records), drop_missing=True)
        assert stats.labels == ("U1",)

    def test_nothing_left_is_an_error(self):
        records = (StudentRecord("U1", "state_funded", "olympiad", None),)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no universities"):
                aggregate(Dataset(records), drop_missing=True)

    def test_grouped_rows_take_scratch_for_a_batch_not_for_the_rows(self):
        # each university's rows together and no gap: the scores are read in place and the
        # codes counted in batches, so aggregate's scratch does not grow by a copy per row
        n_universities, per_university = 500, 400
        n = n_universities * per_university
        codes = np.repeat(np.arange(n_universities, dtype=np.int32), per_university)
        scores = np.random.default_rng(5).integers(1, 1001, n) / 10
        dataset = Dataset._from_columns(
            tuple(f"U{u}" for u in range(n_universities)), codes, np.zeros(n, np.int8),
            np.zeros(n, np.int8), scores, np.zeros(n, bool))
        tracemalloc.start()
        try:
            stats = aggregate(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.count.tolist() == [per_university] * n_universities
        assert stats.mean[7] == statistics.fmean(scores[7 * per_university:8 * per_university])
        assert peak < 3 * n + 2**20


_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["U1", "U2", "U3", "U4"]),
        st.sampled_from(FORMS),
        st.one_of(
            st.none(),
            st.integers(1, 1000).map(lambda k: k / 10),
            st.floats(min_value=1e-300, max_value=100),
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestAggregateSummaries:
    @given(rows=_ROWS, batch=st.sampled_from([1, 2, 5, 4096]))
    @settings(deadline=None, max_examples=150)
    def test_each_entry_summarises_its_observed_scores(self, rows, batch):
        # batches of a few rows cut between groups and hold groups longer than a batch
        ds = Dataset(StudentRecord(u, form, "competition", score) for u, form, score in rows)
        for split in (False, True):
            observed: dict[tuple, list[float]] = {}  # record order within each group
            for u, form, score in rows:
                group = observed.setdefault((u, form if split else None), [])
                if score is not None:
                    group.append(score)
            expected = [
                (u, form, observed[u, form])
                for u in dict.fromkeys(u for u, _, _ in rows)
                for form in (FORMS if split else (None,))
                if observed.get((u, form))
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # groups without scores
                if not expected:
                    with pytest.raises(ValueError, match="no universities"):
                        aggregate(ds, split_by_form=split, drop_missing=True)
                    continue
                with mock.patch.object(unihet.orders, "_BATCH_ROWS", batch):
                    stats = aggregate(ds, split_by_form=split, drop_missing=True)
            assert len(stats) == len(expected)
            for row, (u, form, scores) in zip(_rows(stats), expected):
                mean, std = reference_mean_pstdev(scores)
                assert row == (u if form is None else f"{u}/{form}", form, mean, std,
                               len(scores), min(scores), max(scores))
                assert (row[2].hex(), row[3].hex()) == (mean.hex(), std.hex())


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec(5, (10, 20), (50.0, 70.0), (2.0, 8.0), missing_frac=0.1, seed=11)
        assert synth(spec).records == synth(spec).records

    def test_exact_statistics_per_university(self):
        spec = SynthSpec(8, (9, 30), (40.0, 80.0), (0.0, 10.0), seed=4)
        ds = synth(spec)
        stats = aggregate(ds)  # no gaps: one row per university code
        for code, (mean, std) in enumerate(zip(stats.mean.tolist(), stats.std.tolist())):
            assert 40.0 <= mean <= 80.0
            assert 0.0 <= std <= 10.0
            target_mean = statistics.fmean(ds.scores[ds.university_codes == code].tolist())
            assert mean == pytest.approx(target_mean, abs=1e-9)

    def test_summary_stays_inside_the_requested_envelope(self):
        spec = SynthSpec(
            30, (20, 60), (47.39, 76.97), (2.9, 17.0), missing_frac=0.032, seed=9,
            tuition_frac=0.25,
        )
        stats = aggregate(synth(spec), drop_missing=True)
        assert len(stats) == 30
        assert all(47.39 <= mean <= 76.97 for mean in stats.mean.tolist())
        assert all(2.9 <= std <= 17.0 for std in stats.std.tolist())

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
    """The per-university statistics CSV, written by ``plot_rows`` + ``write_plot``."""

    def test_mean_std_intervals(self, tmp_path, four_system_dataset):
        path = tmp_path / "stats.csv"
        write_plot(plot_rows(four_system_dataset), "csv", str(path))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "university_id,form,mean,std,count,interval_lo,interval_hi"
        assert lines[1] == "A,all,60.0,5.0,2,55.0,65.0"

    def test_min_max_intervals(self, tmp_path, four_system_dataset):
        path = tmp_path / "stats.csv"
        write_plot(plot_rows(four_system_dataset, interval_method="min_max"), "csv", str(path))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[4] == "D,all,90.0,5.0,2,85.0,95.0"

    def test_min_max_requires_scores(self, four_system):
        with pytest.raises(ValueError, match="^A: min/max intervals need raw scores$"):
            build_interval_order(four_system, "min_max")

    def test_unknown_method(self, four_system_dataset):
        with pytest.raises(ValueError, match="interval method"):
            plot_rows(four_system_dataset, interval_method="median")
