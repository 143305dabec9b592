import contextlib
import csv
import io
import json
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import unihet
from unihet import Dataset, DatasetError, StudentRecord, load_csv, save_csv
from unihet.cli import main, parse_ideal
from unihet.data import BASES, FORMS, _check_rows
from unihet.ideals import ClusteredIdeal, DesiredIdeal, UniformIdeal


@pytest.fixture
def students_csv(tmp_path, two_tier_dataset):
    path = str(tmp_path / "students.csv")
    save_csv(two_tier_dataset, path)
    return path


@pytest.fixture
def gaps_csv(tmp_path, gap_records):
    path = str(tmp_path / "gaps.csv")
    save_csv(Dataset(tuple(gap_records), "fixture"), path)
    return path


class TestParseIdeal:
    def test_clustered_and_uniform(self):
        assert parse_ideal("clustered:k=4") == ClusteredIdeal(4)
        assert parse_ideal("uniform:k=3") == UniformIdeal(3)

    def test_desired_preset(self):
        spec = parse_ideal("desired:preset=electronic")
        assert isinstance(spec, DesiredIdeal)
        assert spec.spec.breakpoints == (55.0, 70.0)

    def test_desired_breaks_default_to_lower_rule(self):
        spec = parse_ideal("desired:breaks=55,70")
        assert spec.spec.breakpoints == (55.0, 70.0)
        assert spec.spec.boundary_rule == ("lower", "lower")

    def test_errors(self):
        for bad in (
            "clustered", "clustered:x=4", "clustered:k=four", "uniform:k=",
            "desired:preset=astrology", "desired:breaks=a,b", "desired:k=3",
            "banded:k=3",
        ):
            with pytest.raises(ValueError):
                parse_ideal(bad)


class TestImputeCommand:
    def test_end_to_end(self, tmp_path, gaps_csv, capsys):
        out = str(tmp_path / "filled.csv")
        code = main([
            "impute", "--input", gaps_csv, "--out", out,
            "--seed", "42", "--min-students", "10",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "7 of 72 scores missing" in printed
        assert "excluded 2 universities" in printed  # gappy and tiny at min 10
        ds = load_csv(out)
        assert not any(r.missing for r in ds.records)
        assert sum(r.imputed for r in ds.records) == 2

    def test_deterministic_output_files(self, tmp_path, gaps_csv):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["impute", "--input", gaps_csv, "--out", out_a, "--seed", "42"]) == 0
        assert main(["impute", "--input", gaps_csv, "--out", out_b, "--seed", "42"]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["impute", "--input", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_input_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(
            b"university_id,form,basis,score\n"
            b"U1,state_funded,competition,60\n"
            b"U1,state_funded,competition,6\xff\n"
        )
        assert main(["impute", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:3: byte 0xff is not UTF-8" in err
        assert "Traceback" not in err

    def test_slash_in_university_exits_2(self, tmp_path, capsys):
        path = tmp_path / "slash.csv"
        path.write_text(
            "university_id,form,basis,score\n"
            "A/tuition_based,state_funded,competition,60\n"
        )
        assert main(["impute", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"error: {path}:2: university identifier" in capsys.readouterr().err

    def test_quoted_line_break_keeps_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "multiline.csv"
        path.write_text(
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,60\n"
            '"U\n2",state_funded,competition,60\n'
            "U3,evening,competition,60\n"
        )
        assert main(["impute", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"error: {path}:5: unknown study form 'evening'" in capsys.readouterr().err

    def test_band_narrower_than_an_ulp_terminates(self, tmp_path):
        # positive variance whose mean +- sd rounds back to the mean: the
        # gap takes the mean instead of redrawing forever
        path = tmp_path / "flat.csv"
        rows = ["U1,state_funded,competition,50.0"] * 20
        rows += ["U1,state_funded,competition,50.00000000000001", "U1,state_funded,benefit,"]
        path.write_text("university_id,form,basis,score\n" + "\n".join(rows) + "\n")
        out = tmp_path / "filled.csv"
        src = str(Path(unihet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "unihet", "impute", "--input", str(path), "--out", str(out),
             "--min-students", "1"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text().splitlines()[-1] == "U1,state_funded,benefit,50.0,1"


_GOOD_ROW = "U1,state_funded,competition,60"
_CELL = st.text(alphabet=string.ascii_letters + string.digits + "_-. ", max_size=8)
_NOT_UTF8 = (b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf0\x9f")


@st.composite
def _malformed_file(draw):
    """A student CSV with one malformed row among good and blank ones.

    Returns the file's bytes and the line a loader must name: the bad row's
    physical line number, or None when the header itself (or an empty file)
    is at fault.
    """
    imputed = draw(st.booleans())
    header = "university_id,form,basis,score" + (",imputed" if imputed else "")
    good = _GOOD_ROW + (",0" if imputed else "")
    fields = good.split(",")
    kinds = ["fields", "score", "range", "form", "slash", "bytes", "header", "empty"]
    kind = draw(st.sampled_from(kinds + (["flag"] if imputed else [])))
    if kind == "fields":
        width = draw(st.integers(1, 7).filter(lambda n: n != len(fields)))
        fields = draw(st.lists(_CELL, min_size=width, max_size=width))
        fields[0] = fields[0] or "x"  # a row of one empty cell is a blank line
    elif kind == "score":
        # letters never parse as a number ("nan" and "inf" do, and are out of range)
        fields[3] = draw(st.text(alphabet="abcefinxyz", min_size=1, max_size=6))
    elif kind == "range":
        fields[3] = repr(draw(st.floats().filter(lambda x: x != 0 and not 0 < x <= 100)))
    elif kind == "form":
        fields[1] = draw(_CELL.filter(lambda f: f.strip() not in FORMS))
    elif kind == "flag":
        fields[4] = draw(_CELL.filter(lambda f: f.strip() not in ("0", "1")))
    elif kind == "slash":
        fields[0] = draw(_CELL) + "/" + draw(_CELL)
    row = ",".join(fields).encode()
    if kind == "bytes":
        where = draw(st.integers(0, len(row)))
        row = row[:where] + draw(st.sampled_from(_NOT_UTF8)) + row[where:]
    # a quoted id with a line break spans two physical lines
    before = draw(st.lists(st.sampled_from([good, "", '"U\n1"' + good[2:]]), max_size=4))
    after = draw(st.lists(st.sampled_from([good, "bad,row"]), max_size=3))
    body = b"".join(f"{line}\n".encode() for line in before) + row + b"\n"
    body += b"".join(f"{line}\n".encode() for line in after)
    if kind == "header":
        return draw(_CELL).encode() + b"\n" + body, None
    if kind == "empty":
        return b"", None
    return f"{header}\n".encode() + body, 2 + sum(1 + line.count("\n") for line in before)


class TestLoaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(case=_malformed_file())
    def test_malformed_rows_exit_2_naming_path_and_line(self, case):
        data, line = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "students.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["impute", "--input", path, "--out", os.path.join(tmp, "out.csv")])
        message = err.getvalue()
        assert code == 2, message
        assert "Traceback" not in message
        assert message.startswith(f"error: {path}:" if line is None else f"error: {path}:{line}: ")


_PADDING = st.sampled_from(["", " ", "  "])
_ID_CHARS = string.ascii_letters + string.digits + ' ,"\n\r-_.é'


@st.composite
def _clean_file(draw):
    """A student CSV written by ``csv.writer``, which the loader mostly accepts.

    Ids may hold commas, quotes and line breaks (so they are quoted), cells
    carry surrounding blanks that the loader strips, unknown bases fold into
    ``other``, and blank lines and CRLF endings may appear.  Some draws are
    malformed all the same (an id of blanks only, or a bare CR in an id
    when lines end in LF, which the writer leaves unquoted); both loaders
    must then report the same error.
    """
    imputed = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(("university_id", "form", "basis", "score") + (("imputed",) if imputed else ()))
    ids = draw(st.lists(st.text(alphabet=_ID_CHARS, min_size=1, max_size=6), min_size=1, max_size=4))
    score = st.one_of(
        st.sampled_from(["", " ", "0", "-0", "0.0", "1e1", " 50 ", "100", "1_0"]),
        st.floats(min_value=0.0, max_value=100.0).map(repr),
    )
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            buf.write(newline)  # a blank line
        pad = draw(_PADDING)
        row = [
            pad + draw(st.sampled_from(ids)) + pad,
            draw(_PADDING) + draw(st.sampled_from(FORMS)) + draw(_PADDING),
            draw(st.sampled_from(BASES + ("quota", ""))) + draw(_PADDING),
            draw(score),
        ]
        if imputed:
            row.append(draw(_PADDING) + draw(st.sampled_from(["0", "1"])))
        writer.writerow(row)
    return buf.getvalue().encode()


def _load_outcome(load, path):
    try:
        return list(load(path))
    except DatasetError as exc:
        return str(exc)


class TestColumnLoaderMatchesRowChecker:
    """``load_csv`` reads columns and validates them in bulk; on any fault it
    hands over to the row checker.  Either way the result must be what the
    row checker alone gives: the same records, or the same message."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(_clean_file(), _malformed_file().map(lambda case: case[0])))
    def test_same_records_or_same_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "students.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            assert _load_outcome(load_csv, path) == _load_outcome(_check_rows, path)

    def test_quoted_ids_and_crlf_lines_load_as_written(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_bytes(
            b"university_id,form,basis,score,imputed\r\n"
            b'"A, ""B""\r\nC",state_funded,competition,60.5,0\r\n'
            b"\r\n"
            b" D ,tuition_based , lottery,,1\r\n"
        )
        ds = load_csv(str(path))
        assert ds.universities() == ('A, "B"\r\nC', "D")
        assert ds.records == (
            StudentRecord('A, "B"\r\nC', "state_funded", "competition", 60.5),
            StudentRecord("D", "tuition_based", "other", None, imputed=True),
        )


class TestAnalyzeCommand:
    def test_json_report(self, tmp_path, students_csv, capsys):
        out = str(tmp_path / "report.json")
        code = main([
            "analyze", "--input", students_csv,
            "--ideal", "clustered:k=3",
            "--ideal", "desired:breaks=60,75",
            "--exclude-below", "60",
            "--out", out,
            "--group-label", "demo",
        ])
        assert code == 0
        data = json.loads(open(out).read())
        assert data["group_label"] == "demo"
        assert data["n_universities"] == {"all": 6}
        assert data["exclusion"]["by_form"]["all"]["n_removed"] == 2
        printed = capsys.readouterr().out
        assert "hamming" in printed and out in printed

    def test_csv_report(self, tmp_path, students_csv):
        out = str(tmp_path / "report.csv")
        code = main([
            "analyze", "--input", students_csv,
            "--ideal", "uniform:k=3", "--format", "csv", "--out", out,
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert rows[0]["spec"] == "uniform:k=3"

    def test_bad_ideal_exits_2(self, students_csv, capsys):
        code = main(["analyze", "--input", students_csv, "--ideal", "nope:k=1"])
        assert code == 2
        assert "unknown ideal kind" in capsys.readouterr().err

    def test_exclusion_needs_tier_scheme(self, students_csv, capsys):
        code = main([
            "analyze", "--input", students_csv,
            "--ideal", "clustered:k=2", "--exclude-below", "60",
        ])
        assert code == 2
        assert "tier-scheme" in capsys.readouterr().err

    def test_default_output_honours_env_dir(self, tmp_path, students_csv, monkeypatch):
        outdir = tmp_path / "outputs"
        outdir.mkdir()
        monkeypatch.setenv("UNIHET_OUT_DIR", str(outdir))
        code = main(["analyze", "--input", students_csv, "--ideal", "clustered:k=2"])
        assert code == 0
        assert (outdir / "report.json").exists()

    def test_explicit_out_beats_env_dir(self, tmp_path, students_csv, monkeypatch):
        monkeypatch.setenv("UNIHET_OUT_DIR", str(tmp_path / "ignored"))
        out = str(tmp_path / "here.json")
        assert main(["analyze", "--input", students_csv, "--ideal", "clustered:k=2", "--out", out]) == 0
        assert not (tmp_path / "ignored").exists()


class TestWhatifCommand:
    def test_sweep(self, tmp_path, students_csv, capsys):
        out = str(tmp_path / "whatif.csv")
        code = main([
            "whatif", "--input", students_csv,
            "--ideal", "desired:breaks=60,75",
            "--floors", "40,60,90",
            "--format", "csv", "--out", out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "infeasible" in printed
        rows = list(csv.DictReader(open(out)))
        assert [r["floor"] for r in rows] == ["40.0", "60.0", "90.0"]
        assert rows[2]["feasible"] == "0"

    def test_requires_tier_scheme(self, students_csv, capsys):
        code = main([
            "whatif", "--input", students_csv,
            "--ideal", "clustered:k=2", "--floors", "50",
        ])
        assert code == 2
        assert "tier-scheme" in capsys.readouterr().err

    def test_bad_floors(self, students_csv, capsys):
        code = main([
            "whatif", "--input", students_csv,
            "--ideal", "desired:breaks=60", "--floors", "a,b",
        ])
        assert code == 2
        assert "floors" in capsys.readouterr().err


class TestPlotdataCommand:
    def test_csv_rows(self, tmp_path, students_csv):
        out = str(tmp_path / "plot.csv")
        code = main([
            "plotdata", "--input", students_csv,
            "--format", "csv", "--out", out,
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        assert {r["university_id"] for r in rows} == {"E1", "E2", "M1", "M2", "W1", "W2"}

    def test_json_min_max(self, tmp_path, students_csv):
        out = str(tmp_path / "plot.json")
        code = main([
            "plotdata", "--input", students_csv,
            "--interval-method", "min_max", "--format", "json", "--out", out,
        ])
        assert code == 0
        rows = json.loads(open(out).read())
        w2 = next(r for r in rows if r["university_id"] == "W2")
        assert (w2["interval_lo"], w2["interval_hi"]) == (27.0, 83.0)


class TestEntryPoint:
    def test_console_script_help(self, tmp_path):
        # Resolve the script from pyproject.toml and run it the way the
        # installed wrapper would, against this checkout's src/, so the
        # test needs no install and cannot pick up another unihet on PATH.
        toml = tomllib or pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            scripts = toml.load(f)["project"].get("scripts", {})
        assert "unihet" in scripts
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"main = EntryPoint('unihet', {scripts['unihet']!r}, "
            "'console_scripts').load()\n"
            "sys.argv = ['unihet', '--help']\n"
            "sys.exit(main())\n"
        )
        src = str(Path(unihet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", wrapper],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "impute" in result.stdout and "plotdata" in result.stdout
