import csv
import json
import math
import tracemalloc
from dataclasses import asdict

import pytest

from unihet import (
    ClusteredIdeal,
    Dataset,
    DesiredIdeal,
    HeterogeneityReport,
    StudentRecord,
    UniformIdeal,
    analyze,
    emit,
    load_report,
    plot_rows,
    preset,
    whatif_exclusion,
    write_plot,
    write_whatif,
)
from unihet import report as report_module
from unihet.data import aggregate
from unihet.report import real_order

from helpers import SynthSpec, brute_hamming, pairs, synth

TWO_TIER = DesiredIdeal((60.0, 75.0), ("upper", "lower"))


def _slice_renamed(split_by_form, *keys):
    """An edit of a report dict with the one slice ``"all"`` that sets ``split_by_form`` and
    puts the slice under each of ``keys`` in every section, so that the sections agree."""
    def edit(data):
        data["split_by_form"] = split_by_form
        sections = [data["n_universities"], data["exclusion"]["by_form"],
                    *(result["by_form"] for result in data["per_ideal"])]
        for section in sections:
            value = section.pop("all")
            section.update(dict.fromkeys(keys, value))
    return edit


class TestRealOrder:
    def test_mean_std(self, four_system):
        order = real_order(four_system)
        assert len(pairs(order)) == 5

    def test_min_max_needs_scores(self, four_system):
        with pytest.raises(ValueError, match="raw scores"):
            real_order(four_system, "min_max")

    def test_min_max(self, four_system_dataset):
        order = real_order(aggregate(four_system_dataset), "min_max")
        # same intervals as mean_std here: two symmetric scores per university
        assert len(pairs(order)) == 5

    def test_unknown_method(self, four_system):
        with pytest.raises(ValueError, match="interval method"):
            real_order(four_system, "width")


def _spy_builds(monkeypatch):
    """Count the calls of ``report.real_order`` and of each ideal's ``build``."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(report_module, "real_order", counted("real_order", real_order))
    for cls in (ClusteredIdeal, UniformIdeal, DesiredIdeal):
        monkeypatch.setattr(cls, "build", counted(cls.__name__, cls.build))
    return calls


def _spy_aggregate(monkeypatch):
    """Count the calls of ``report.aggregate``."""
    calls = {}

    def wrapper(*args, **kwargs):
        calls["aggregate"] = calls.get("aggregate", 0) + 1
        return aggregate(*args, **kwargs)

    monkeypatch.setattr(report_module, "aggregate", wrapper)
    return calls


class TestAnalyze:
    def test_three_ideals_on_the_four_system(self, four_system_dataset):
        report = analyze(
            four_system_dataset,
            [
                ClusteredIdeal(2),
                UniformIdeal(4),
                UniformIdeal(4, assignment_override={"B": 1}),
                DesiredIdeal((75.0,), ("lower",)),
            ],
            group_label="four-system",
        )
        assert report.group_label == "four-system"
        assert report.n_universities == {"all": 4}
        values = {r.spec: r.by_form["all"].hamming for r in report.per_ideal}
        assert values["clustered:k=2"] == pytest.approx(1 / 12, abs=1e-9)
        assert values["desired:breaks=75"] == pytest.approx(1 / 12, abs=1e-9)
        # the override has no --ideal text, so that entry is named by its repr
        assert values["uniform:k=4"] == 0.0
        overridden = "UniformIdeal(k=4, assignment_override={'B': 1})"
        assert values[overridden] == pytest.approx(1 / 12, abs=1e-9)

    def test_group_label_names_the_cohort(self, four_system_dataset):
        assert analyze(four_system_dataset, [ClusteredIdeal(2)]).group_label == "unlabeled"
        labelled = analyze(four_system_dataset, [ClusteredIdeal(2)], group_label="x")
        assert labelled.group_label == "x"

    def test_empty_group_label_is_refused(self, four_system_dataset):
        with pytest.raises(ValueError, match="group label must be non-empty"):
            analyze(four_system_dataset, [ClusteredIdeal(2)], group_label="")

    def test_group_tables_partition_each_slice(self, four_system_dataset):
        report = analyze(four_system_dataset, [ClusteredIdeal(2)])
        table = report.per_ideal[0].by_form["all"].group_table
        assert sum(row.count for row in table) == 4

    def test_split_by_form(self):
        records = []
        for u, base in (("U1", 50), ("U2", 60), ("U3", 70)):
            for form, delta in (("state_funded", 0), ("tuition_based", 5)):
                records += [
                    StudentRecord(u, form, "competition", base + delta - 2),
                    StudentRecord(u, form, "competition", base + delta + 2),
                ]
        report = analyze(Dataset(tuple(records)), [ClusteredIdeal(2)], split_by_form=True)
        assert set(report.n_universities) == {"state_funded", "tuition_based"}
        assert report.n_universities["state_funded"] == 3
        assert report.split_by_form

    def test_form_without_enough_universities_is_skipped(self):
        records = [
            StudentRecord("U1", "state_funded", "competition", 48.0),
            StudentRecord("U1", "state_funded", "competition", 52.0),
            StudentRecord("U2", "state_funded", "competition", 68.0),
            StudentRecord("U2", "state_funded", "competition", 72.0),
            StudentRecord("U1", "tuition_based", "competition", 60.0),
        ]
        with pytest.warns(UserWarning, match="tuition_based"):
            report = analyze(Dataset(tuple(records)), [ClusteredIdeal(2)], split_by_form=True)
        assert set(report.n_universities) == {"state_funded"}

    def test_exclusion_uses_first_tier_scheme(self, two_tier_dataset):
        report = analyze(
            two_tier_dataset,
            [ClusteredIdeal(3), TWO_TIER],
            floor=60.0,
        )
        ex = report.exclusion
        assert ex is not None
        # breaks= text would read back with lower rules, so the report names the repr
        assert ex.spec == repr(TWO_TIER)
        assert ex.floor == 60.0
        outcome = ex.by_form["all"]
        assert outcome.n_removed == 2 and outcome.n_kept == 4
        assert outcome.hamming_after == 0.0

    def test_two_tier_distances(self, two_tier_dataset):
        report = analyze(two_tier_dataset, [TWO_TIER], floor=60.0)
        before = report.per_ideal[0].by_form["all"].hamming
        assert before == pytest.approx(2 / 15, abs=1e-12)
        assert report.exclusion.by_form["all"].hamming_after < before

    def test_exclusion_reuses_each_slice_order(self, monkeypatch):
        calls = _spy_builds(monkeypatch)
        dataset = synth(
            SynthSpec(40, (12, 14), (40.0, 95.0), (0.0, 6.0), seed=3, tuition_frac=0.5)
        )
        specs = [ClusteredIdeal(3), preset("electronic"), UniformIdeal(4),
                 TWO_TIER]
        report = analyze(dataset, specs, split_by_form=True, floor=55.0)
        assert len(report.n_universities) == 2
        # one observed order per slice, one order per (ideal, slice)
        assert calls == {
            "real_order": 2, "ClusteredIdeal": 2, "DesiredIdeal": 4, "UniformIdeal": 2
        }
        assert report.exclusion.spec == "desired:preset=electronic"

    @pytest.mark.parametrize("specs, floor, message", [
        ([ClusteredIdeal(2), UniformIdeal(2)], 55.0,
         "exclusion floors need a tier-scheme ideal (desired:...)"),
        ([ClusteredIdeal(2), TWO_TIER], float("nan"), "floor must be finite, got nan"),
    ], ids=["no-tier-scheme", "nan-floor"])
    def test_bad_floor_request_is_refused_before_any_work(self, monkeypatch, two_tier_dataset,
                                                          specs, floor, message):
        calls = _spy_aggregate(monkeypatch)
        calls.update(_spy_builds(monkeypatch))
        with pytest.raises(ValueError) as info:
            analyze(two_tier_dataset, specs, floor=floor)
        assert str(info.value) == message
        assert calls == {}

    def test_floor_without_tier_scheme(self, four_system_dataset):
        with pytest.raises(ValueError, match="tier-scheme"):
            analyze(four_system_dataset, [ClusteredIdeal(2)], floor=55.0)

    def test_floor_leaving_too_few(self, four_system_dataset):
        with pytest.raises(ValueError, match="at least 2"):
            analyze(
                four_system_dataset,
                [preset("electronic")],
                floor=85.0,
            )

    def test_no_ideals(self, four_system_dataset):
        with pytest.raises(ValueError, match="at least one"):
            analyze(four_system_dataset, [])

    def test_missing_scores_need_drop_flag(self, four_system_dataset):
        records = four_system_dataset.records + (
            StudentRecord("A", "state_funded", "olympiad", None),
        )
        ds = Dataset(records)
        with pytest.raises(ValueError, match="missing"):
            analyze(ds, [ClusteredIdeal(2)])
        report = analyze(ds, [ClusteredIdeal(2)], drop_missing=True)
        assert report.n_universities == {"all": 4}


class TestReportSerialization:
    def _report(self, dataset):
        return analyze(
            dataset,
            [ClusteredIdeal(2), preset("electronic")],
            floor=55.0,
        )

    def test_json_round_trip(self, tmp_path, four_system_dataset):
        report = self._report(four_system_dataset)
        path = str(tmp_path / "report.json")
        emit(report, "json", path)
        assert load_report(path) == report

    def test_json_shape(self, tmp_path, four_system_dataset):
        report = self._report(four_system_dataset)
        path = tmp_path / "report.json"
        emit(report, "json", str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data) == {
            "group_label", "interval_method", "split_by_form",
            "n_universities", "per_ideal", "exclusion",
        }
        assert data["n_universities"] == {"all": 4}
        first = data["per_ideal"][0]
        assert first["spec"] == "clustered:k=2"
        row = first["by_form"]["all"]["group_table"][0]
        assert set(row) == {"desc", "lo", "hi", "mean", "std", "count"}
        assert data["exclusion"]["floor"] == 55.0

    def test_csv_shape(self, tmp_path, four_system_dataset):
        report = self._report(four_system_dataset)
        path = tmp_path / "report.csv"
        emit(report, "csv", str(path))
        with path.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # two ideals + one exclusion row
        assert rows[0]["section"] == "ideal"
        assert rows[2]["section"] == "exclusion"
        assert rows[2]["floor"] == "55.0"
        assert float(rows[0]["hamming"]) == pytest.approx(1 / 12)

    def test_unknown_format(self, tmp_path, four_system_dataset):
        report = self._report(four_system_dataset)
        with pytest.raises(ValueError, match="format"):
            emit(report, "xml", str(tmp_path / "r.xml"))

    def test_validation_catches_inconsistent_counts(self, tmp_path, four_system_dataset):
        report = self._report(four_system_dataset)
        data = asdict(report)
        data["n_universities"]["all"] = 7
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="group table counts"):
            load_report(str(path))

    def test_missing_top_level_field_names_file_and_field(self, tmp_path, four_system_dataset):
        data = asdict(self._report(four_system_dataset))
        del data["interval_method"]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_report(str(path))
        assert str(info.value) == f"{path}: report is missing the 'interval_method' field"

    def test_missing_nested_field_names_file_and_field(self, tmp_path, four_system_dataset):
        data = asdict(self._report(four_system_dataset))
        del data["per_ideal"][1]["by_form"]["all"]["group_table"][0]["count"]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_report(str(path))
        assert str(info.value) == f"{path}: report is missing the 'count' field"

    @pytest.mark.parametrize("what, field, value, message", [
        ("report", ("per_ideal", 0, "by_form"), [], "an array where an object"),
        ("report", ("n_universities",), [1], "an array where an object"),
        ("report", ("per_ideal", 0, "by_form", "all", "hamming"), "x", "a string where a number"),
        ("report", ("per_ideal", 0, "by_form", "all", "hamming"), None, "null where a number"),
        ("report", ("per_ideal", 0, "by_form", "all", "group_table"), None, "null where an array"),
        ("report", ("exclusion",), "x", "a string where an object"),
        ("report", ("split_by_form",), 1, "an integer where a boolean"),
        ("report", ("per_ideal", 0, "by_form", "all", "group_table", 0, "count"), True,
         "a boolean where an integer"),
    ])
    def test_wrong_json_types_name_the_file(
        self, tmp_path, four_system_dataset, what, field, value, message
    ):
        path = self._edited(tmp_path, four_system_dataset, field, value)
        with pytest.raises(ValueError) as info:
            load_report(str(path))
        assert str(info.value) == f"{path}: {what} has {message} belongs"

    @pytest.mark.parametrize("field, value, message", [
        (("per_ideal", 0, "by_form", "all", "hamming"), 2.0, "hamming must lie in [0, 1], got 2.0"),
        (("per_ideal",), [], "a report needs at least one reference order"),
        # values that analyze never writes: the report's own checks refuse them on load
        (("group_label",), "", "group label must be non-empty"),
        (("exclusion", "by_form", "all", "n_kept"), 999,
         "exclusion/all: 0 removed and 999 kept, slice has 4"),
        (("exclusion", "by_form", "all"), {"n_removed": -1, "n_kept": 5, "hamming_after": 0.0},
         "exclusion/all: -1 removed and 5 kept, slice has 4"),
        (("exclusion", "by_form", "all"), {"n_removed": 3, "n_kept": 1, "hamming_after": 0.0},
         "exclusion/all: floor 55.0 keeps 1 universities; at least 2 are needed"),
        (("exclusion", "by_form", "all", "hamming_after"), 7.5,
         "hamming_after must lie in [0, 1], got 7.5"),
        (("exclusion", "by_form"),
         {"state_funded": {"n_removed": 0, "n_kept": 4, "hamming_after": 0.0}},
         "exclusion 'desired:preset=electronic' covers slices ['state_funded'], expected ['all']"),
        (("exclusion", "floor"), -math.inf, "floor must be finite, got -inf"),
        # slice keys that analyze never writes, each section naming the same slices
        ((), _slice_renamed(True, "all"), "a report split by form needs one or more slices "
         "of ['state_funded', 'tuition_based'], got ['all']"),
        ((), _slice_renamed(False, "state_funded"), "a report not split by form needs one or "
         "more slices of ['all'], got ['state_funded']"),
        ((), _slice_renamed(True, "evening"), "a report split by form needs one or more "
         "slices of ['state_funded', 'tuition_based'], got ['evening']"),
        ((), _slice_renamed(True), "a report split by form needs one or more slices of "
         "['state_funded', 'tuition_based'], got []"),
        # keys that are no field, at the top and deep down: neither is dropped in silence
        ((), lambda data: data.update(exclusoin=data.pop("exclusion")),
         "report has an unknown field 'exclusoin'"),
        (("per_ideal", 0, "by_form", "all", "extra"), 1, "report has an unknown field 'extra'"),
    ], ids=["hamming-above-1", "no-reference-order", "empty-group-label", "kept-past-the-slice",
            "negative-removed", "one-kept", "hamming-after-above-1", "exclusion-slice-not-in-report",
            "infinite-floor", "split-with-all", "unsplit-with-form", "split-with-unknown-form",
            "no-slice", "misspelled-field", "extra-outcome-field"])
    def test_refused_values_name_the_file(self, tmp_path, four_system_dataset, field, value,
                                          message):
        path = self._edited(tmp_path, four_system_dataset, field, value)
        with pytest.raises(ValueError) as info:
            load_report(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("content, message", [
        (b"{'all': 1}",
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b'{"group_label": "\xff"}',
         "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
    ], ids=["malformed-json", "not-utf8"])
    def test_unreadable_file_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_report(str(path))
        assert str(info.value) == f"{path}: {message}"

    def _edited(self, tmp_path, dataset, field, value):
        """A JSON file of the report with the value at ``field`` replaced, or with the
        edit ``value`` applied to the whole report when ``field`` is empty."""
        data = asdict(self._report(dataset))
        if not field:
            value(data)
        else:
            *parents, last = field
            target = data
            for key in parents:
                target = target[key]
            target[last] = value
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_json_integers_read_as_numbers(self, tmp_path, four_system_dataset):
        report = self._report(four_system_dataset)
        data = asdict(report)
        data["exclusion"]["floor"] = 55  # written by hand, not by emit
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert load_report(str(path)) == report

    def test_report_without_exclusion_round_trips(self, tmp_path, four_system_dataset):
        report = analyze(four_system_dataset, [ClusteredIdeal(2), UniformIdeal(3)])
        path = str(tmp_path / "report.json")
        emit(report, "json", path)
        with open(path, encoding="utf-8") as fh:
            assert json.loads(fh.read())["exclusion"] is None
        assert load_report(path) == report


class TestWhatIf:
    def test_rows_are_ordered_and_match_analyze(self, two_tier_dataset):
        rows = whatif_exclusion(two_tier_dataset, TWO_TIER, [75.0, 40.0, 60.0])
        assert [r.floor for r in rows] == [40.0, 60.0, 75.0]
        by_floor = {r.floor: r for r in rows}
        assert by_floor[40.0].n_removed == 0
        assert by_floor[40.0].hamming == pytest.approx(2 / 15, abs=1e-12)
        assert by_floor[60.0].n_removed == 2
        assert by_floor[60.0].hamming == 0.0
        assert by_floor[60.0].hamming < by_floor[40.0].hamming

    def test_distances_match_independent_count(self, two_tier_dataset):
        stats = aggregate(two_tier_dataset)
        for row in whatif_exclusion(two_tier_dataset, TWO_TIER, [40.0, 60.0]):
            kept = stats.take(stats.mean >= row.floor)
            real = real_order(kept)
            ideal, _ = TWO_TIER.build(kept)
            assert row.hamming == brute_hamming(real.incidence, ideal.incidence)

    def test_infeasible_floor(self, two_tier_dataset):
        rows = whatif_exclusion(two_tier_dataset, TWO_TIER, [90.0])
        assert rows[0].feasible is False
        assert rows[0].hamming is None
        assert rows[0].n_removed == 6

    def test_one_survivor_is_also_infeasible(self, two_tier_dataset):
        rows = whatif_exclusion(two_tier_dataset, TWO_TIER, [85.5])
        assert rows[0].n_removed == 5
        assert rows[0].feasible is False

    def test_floor_validation(self, two_tier_dataset):
        with pytest.raises(ValueError, match="at least one floor"):
            whatif_exclusion(two_tier_dataset, TWO_TIER, [])
        with pytest.raises(ValueError, match="finite"):
            whatif_exclusion(two_tier_dataset, TWO_TIER, [float("nan")])

    def test_nan_floor_is_refused_before_any_work(self, monkeypatch, two_tier_dataset):
        calls = _spy_aggregate(monkeypatch)
        calls.update(_spy_builds(monkeypatch))
        with pytest.raises(ValueError) as info:
            whatif_exclusion(two_tier_dataset, TWO_TIER, [40.0, float("nan")])
        assert str(info.value) == "floor must be finite, got nan"
        assert calls == {}

    @pytest.mark.parametrize("spec", [ClusteredIdeal(2), UniformIdeal(2)])
    def test_needs_a_tier_scheme(self, two_tier_dataset, spec):
        with pytest.raises(ValueError) as info:
            whatif_exclusion(two_tier_dataset, spec, [40.0])
        assert str(info.value) == "exclusion floors need a tier-scheme ideal (desired:...)"

    def test_each_order_is_built_once(self, monkeypatch):
        calls = _spy_builds(monkeypatch)
        dataset = synth(SynthSpec(40, (2, 4), (40.0, 95.0), (0.0, 6.0), seed=3))
        floors = [float(f) for f in range(40, 90, 5)]
        rows = whatif_exclusion(dataset, preset("electronic"), floors)
        assert sum(row.feasible for row in rows) >= 8
        assert calls == {"real_order": 1, "DesiredIdeal": 1}

    def test_write_json_and_csv(self, tmp_path, two_tier_dataset):
        rows = whatif_exclusion(two_tier_dataset, TWO_TIER, [40.0, 90.0])
        jpath = tmp_path / "whatif.json"
        write_whatif(rows, "desired:breaks=60,75", "json", str(jpath))
        data = json.loads(jpath.read_text(encoding="utf-8"))
        assert data["spec"] == "desired:breaks=60,75"
        assert data["rows"][1]["hamming"] is None
        cpath = tmp_path / "whatif.csv"
        write_whatif(rows, "desired:breaks=60,75", "csv", str(cpath))
        lines = cpath.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "floor,n_removed,hamming,feasible"
        assert lines[2].endswith(",,0")  # empty hamming cell on the infeasible row


class TestPlotRows:
    def test_rows(self, four_system_dataset):
        rows = plot_rows(four_system_dataset)
        assert [r["university_id"] for r in rows] == ["A", "B", "C", "D"]
        a = rows[0]
        assert (a["mean"], a["std"], a["count"]) == (60.0, 5.0, 2)
        assert (a["interval_lo"], a["interval_hi"]) == (55.0, 65.0)
        assert a["form"] == "all"

    def test_split_and_min_max(self, four_system_dataset):
        with pytest.warns(UserWarning, match="tuition_based"):
            rows = plot_rows(four_system_dataset, interval_method="min_max", split_by_form=True)
        assert all(r["form"] == "state_funded" for r in rows)
        assert rows[3]["interval_hi"] == 95.0

    def test_write(self, tmp_path, four_system_dataset):
        rows = plot_rows(four_system_dataset)
        cpath = tmp_path / "plot.csv"
        write_plot(rows, "csv", str(cpath))
        lines = cpath.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 5
        jpath = tmp_path / "plot.json"
        write_plot(rows, "json", str(jpath))
        assert json.loads(jpath.read_text(encoding="utf-8"))[0]["university_id"] == "A"


class TestUniversityCountValidation:
    def test_slice_with_single_university_is_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            HeterogeneityReport(
                group_label="x",
                interval_method="mean_std",
                split_by_form=False,
                n_universities={"all": 1},
                per_ideal=(),
            )


class TestMemory:
    def test_no_n_by_n_array_on_the_analysis_path(self):
        # a single n x n bool matrix is n**2 bytes; the traced peak of a whole
        # analysis and floor sweep stays under that
        dataset = synth(SynthSpec(3000, (2, 3), (40.0, 95.0), (0.0, 6.0), seed=11))
        specs = [ClusteredIdeal(4), UniformIdeal(5), preset("electronic")]
        tracemalloc.start()
        try:
            report = analyze(dataset, specs, floor=55.0)
            _, analyze_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            rows = whatif_exclusion(dataset, preset("electronic"), [40.0, 55.0, 70.0])
            _, whatif_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = report.n_universities["all"]
        assert n == 3000 and all(row.feasible for row in rows)
        assert analyze_peak < n * n
        assert whatif_peak < n * n
