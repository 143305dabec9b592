import contextlib
import csv
import io
import itertools
import json
import os
import string
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import unihet
import unihet.data
from unihet import Dataset, DatasetError, StudentRecord, load_csv, save_csv
from unihet.cli import main, parse_ideal
from unihet.data import BASES, FORMS, _check_rows, _read_columns
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

    def test_reimpute_fills_nothing(self, tmp_path, gaps_csv, capsys):
        # the rows flagged imputed in the input were not filled by this run
        filled, again = str(tmp_path / "filled.csv"), str(tmp_path / "again.csv")
        assert main(["impute", "--input", gaps_csv, "--out", filled, "--seed", "42",
                     "--min-students", "10"]) == 0
        assert "filled 2 scores" in capsys.readouterr().out
        assert main(["impute", "--input", filled, "--out", again, "--seed", "3",
                     "--min-students", "10"]) == 0
        printed = capsys.readouterr().out
        assert "0 of 46 scores missing" in printed and "filled 0 scores" in printed
        assert Path(again).read_bytes() == Path(filled).read_bytes()

    def test_deterministic_output_files(self, tmp_path, gaps_csv):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["impute", "--input", gaps_csv, "--out", out_a, "--seed", "42"]) == 0
        assert main(["impute", "--input", gaps_csv, "--out", out_b, "--seed", "42"]) == 0
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    def test_byte_order_mark_input(self, tmp_path, gaps_csv):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbf" + Path(gaps_csv).read_bytes())
        out = tmp_path / "filled.csv"
        assert main(["impute", "--input", str(path), "--out", str(out), "--seed", "42"]) == 0
        assert not out.read_bytes().startswith(b"\xef\xbb\xbf")

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
            "A/tuition_based,state_funded,competition,60\n",
            encoding="utf-8",
        )
        assert main(["impute", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"error: {path}:2: university identifier" in capsys.readouterr().err

    def test_quoted_line_break_keeps_line_numbers(self, tmp_path, capsys):
        path = tmp_path / "multiline.csv"
        path.write_text(
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,60\n"
            '"U\n2",state_funded,competition,60\n'
            "U3,evening,competition,60\n",
            encoding="utf-8",
        )
        assert main(["impute", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"error: {path}:5: unknown study form 'evening'" in capsys.readouterr().err

    def test_band_narrower_than_an_ulp_terminates(self, tmp_path):
        # positive variance whose mean +- sd rounds back to the mean: the
        # gap takes the mean instead of redrawing forever
        path = tmp_path / "flat.csv"
        rows = ["U1,state_funded,competition,50.0"] * 20
        rows += ["U1,state_funded,competition,50.00000000000001", "U1,state_funded,benefit,"]
        path.write_text(
            "university_id,form,basis,score\n" + "\n".join(rows) + "\n", encoding="utf-8"
        )
        out = tmp_path / "filled.csv"
        src = str(Path(unihet.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "unihet", "impute", "--input", str(path), "--out", str(out),
             "--min-students", "1"],
            capture_output=True, encoding="utf-8", env=env, cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text(encoding="utf-8").splitlines()[-1] == "U1,state_funded,benefit,50.0,1"


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


_PADDING = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u3000"])
_ID_CHARS = string.ascii_letters + string.digits + ' ,"\n\r-_.é'


@st.composite
def _clean_file(draw):
    """A student CSV written by ``csv.writer``, which the loader mostly accepts.

    Ids may hold commas, quotes and line breaks (so they are quoted), cells
    carry surrounding blanks (Unicode ones too) that the loader strips,
    unknown bases fold into ``other``, and blank lines and CRLF endings may
    appear.  Some draws give every id one long prefix, so that ids of about
    250 to 300 bytes differ only near their ends.  Some draws are malformed
    all the same (an id of blanks only, or a bare CR in an id when lines end
    in LF, which the writer leaves unquoted); both loaders must then report
    the same error.
    """
    imputed = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=newline)
    writer.writerow(("university_id", "form", "basis", "score") + (("imputed",) if imputed else ()))
    ids = draw(st.lists(st.text(alphabet=_ID_CHARS, min_size=1, max_size=12), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:  # long ids that share a prefix, about _KEY_BYTES in all
        letter = draw(st.sampled_from(["U", "é"]))
        prefix = letter * (draw(st.integers(240, 290)) // len(letter.encode()))
        ids = [prefix + university for university in ids]
    score = st.one_of(
        st.sampled_from(["", " ", "0", "-0", "0.0", "1e1", " 50 ", "100", "1_0", "7.5", "99.9",
                         "100.0", "010.0", "100.1", "5.", ".5", "1.25", "-5.5", "1000.0"]),
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
            draw(_PADDING) + draw(score) + draw(_PADDING),
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


def _count_windows(monkeypatch) -> list[int]:
    """A list that gets the number of 8-byte windows of each ``_key`` call."""
    windows = []
    key = unihet.data._key

    def spy(keys, lo, hi, size):
        words = key(keys, lo, hi, size)
        windows.append(len(lo) * len(words))
        return words

    monkeypatch.setattr(unihet.data, "_key", spy)
    return windows


_ANY_FILE = st.one_of(_clean_file(), _malformed_file().map(lambda case: case[0]))


class TestColumnLoaderMatchesRowChecker:
    """``load_csv`` parses byte blocks into columns and validates them in
    bulk; on any fault it hands over to the row checker.  Either way the
    result must be what the row checker alone gives: the same records, or
    the same message."""

    @settings(max_examples=300, deadline=None)
    @given(data=_ANY_FILE)
    def test_same_records_or_same_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "students.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            assert _load_outcome(load_csv, path) == _load_outcome(_check_rows, path)

    @settings(max_examples=300, deadline=None)
    @given(data=_ANY_FILE, block=st.integers(1, 48))
    def test_same_outcome_when_lines_cross_blocks(self, data, block):
        # blocks of a few bytes cut ids, runs of equal ids and CRLF pairs apart
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(unihet.data, "_READ_BLOCK", block):
            path = os.path.join(tmp, "students.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            assert _load_outcome(load_csv, path) == _load_outcome(_check_rows, path)

    def test_quote_free_file_skips_the_row_checker(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.csv"
        path.write_bytes(
            b"university_id,form,basis,score,imputed\r\n"
            b"U1,state_funded,competition,60.5,0\r\n"
            b"\r\n"
            b" U2\xc2\xa0,tuition_based ,lottery,7.25,1\r\n"
            b"U1,state_funded,olympiad,,0"
        )
        calls = []
        monkeypatch.setattr(unihet.data, "_check_rows", lambda p, label: calls.append(p) or Dataset())
        ds = load_csv(str(path))
        assert calls == []
        assert ds.records == (
            StudentRecord("U1", "state_funded", "competition", 60.5),
            StudentRecord("U2", "tuition_based", "other", 7.25, imputed=True),
            StudentRecord("U1", "state_funded", "olympiad", None),
        )

    def test_canonical_cells_are_read_in_bulk(self, tmp_path, monkeypatch):
        rows = [
            f"{university},{form},{basis},{score},{flag}\n"
            for university, (form, basis, score, flag) in zip(
                ["U1"] * 24 + ["U2"] * 24 + ["U1"] * 24,
                itertools.product(FORMS, BASES, ["1.5", "12.5", "100.0"], ["0", "1"]),
            )
        ]
        path = tmp_path / "plain.csv"
        path.write_text(
            "university_id,form,basis,score,imputed\n" + "".join(rows), encoding="utf-8"
        )
        decoded = []
        cells = unihet.data._cells

        def spy(text, lo, hi):
            decoded.extend(cells(text, lo, hi))
            return decoded[len(decoded) - len(lo):]

        monkeypatch.setattr(unihet.data, "_cells", spy)
        assert list(load_csv(str(path))) == list(_check_rows(str(path)))
        assert decoded == ["U1", "U2", "U1"]  # one id per run, and no other cell

    def test_ids_that_share_chunks(self, tmp_path):
        # equal 8-byte windows, different ids: lengths differ, or only a middle window differs;
        # runs of ids at the _KEY_BYTES edge, ids equal in their first 256 bytes, and
        # 2-byte characters across a window edge
        ids = ["AAAAAAAAA", "AAAAAAAAAA", "AAAAAAAAAA", "AAAAAAAAA", "Uni-0000-A-0000-Uni",
               "Uni-0000-B-0000-Uni", "U" * 30 + "1" + "U" * 30, "U" * 30 + "2" + "U" * 30]
        for size in (255, 256, 257):
            ids += ["K" * (size - 1) + "1"] * 3 + ["K" * (size - 1) + "2"] * 2
        ids += ["P" * 256 + "a" * 44, "P" * 256 + "b" * 44, "P" * 256 + "b" * 44]
        ids += ["é" * 5, "é" * 5, "é" * 4 + "ab", "é" * 128, "é" * 127 + "ab", "é" * 128]
        path = tmp_path / "ids.csv"
        path.write_text("university_id,form,basis,score\n" + "".join(
            f"{university},state_funded,competition,50.0\n" for university in ids
        ), encoding="utf-8")
        ds = _read_columns(str(path), "unlabeled")
        assert ds is not None and ds == _check_rows(str(path))
        assert ds.universities() == tuple(dict.fromkeys(ids))
        assert [r.university for r in ds] == ids

    def test_long_id_is_compared_one_chunk_at_a_time(self, tmp_path):
        # ids up to the csv field size limit are legal; the block holding a
        # 100 000-byte id (and the 1 000 rows after it) must not keep an
        # array of its rows per 8 bytes of that id
        short = b"U1,state_funded,competition,60.5\n" * 1000
        path = tmp_path / "long-id.csv"
        path.write_bytes(b"university_id,form,basis,score\n" + short
                         + b"L" * 100_000 + b",state_funded,benefit,70.0\n" + short)
        tracemalloc.start()
        try:
            ds = _read_columns(str(path), "unlabeled")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds is not None and peak < 10_000_000
        assert ds == _check_rows(str(path))

    def test_long_id_costs_its_own_row(self, tmp_path, monkeypatch):
        # an id over _KEY_BYTES is a run of its own, and the key is only as wide
        # as the longest id with a same-length neighbour, so the rows around a
        # 100 000-byte id read a few 8-byte windows each, not one per 8 bytes of it
        short = b"U1,state_funded,competition,60.5\n" * 1000
        path = tmp_path / "long-id.csv"
        path.write_bytes(b"university_id,form,basis,score\n" + short
                         + b"L" * 100_000 + b",state_funded,benefit,70.0\n" + short)
        windows = _count_windows(monkeypatch)
        ds = _read_columns(str(path), "unlabeled")
        assert ds is not None and ds.n_records == 2001
        assert sum(windows) < 20 * 2001

    def test_equal_long_ids_are_not_keyed(self, tmp_path, monkeypatch):
        # two rows of one 20 000-byte id in one block are two runs: a key that
        # wide would read 2 500 windows for each row of the block
        short = b"U1,state_funded,competition,60.5\n" * 1000
        long = b"L" * 20_000 + b",state_funded,benefit,70.0\n"
        path = tmp_path / "long-ids.csv"
        path.write_bytes(b"university_id,form,basis,score\n" + short + long * 2 + short)
        monkeypatch.setattr(unihet.data, "_READ_BLOCK", 1 << 20)  # the whole file
        windows = _count_windows(monkeypatch)
        ds = _read_columns(str(path), "unlabeled")
        assert ds is not None and ds == _check_rows(str(path))
        assert ds.universities() == ("U1", "L" * 20_000)
        assert len(windows) == 3 and sum(windows) < 20 * 2002

    @pytest.mark.parametrize("body, bulk", [
        (b"U1,state_funded,competition,60.5\r\nU2,tuition_based,olympiad,\r\n", True),
        (b'"U,1",state_funded,competition,60.5\r\nU2,tuition_based,olympiad,\r\n', False),
        (b'"U,1",state_funded,competition,60.5\r\nU2,evening,olympiad,\r\n', False),
    ], ids=["plain", "quoted", "quoted-fault"])
    def test_byte_order_mark_is_skipped(self, tmp_path, body, bulk):
        # as Excel's "CSV UTF-8" writes it; line numbers stay those of the file
        path = tmp_path / "students.csv"
        text = b"university_id,form,basis,score\r\n" + body
        path.write_bytes(text)
        unmarked = _load_outcome(load_csv, str(path))
        path.write_bytes(b"\xef\xbb\xbf" + text)
        assert (_read_columns(str(path), "unlabeled") is not None) == bulk
        assert _load_outcome(load_csv, str(path)) == unmarked

    def test_score_spellings_near_the_bulk_rule(self, tmp_path):
        path = tmp_path / "scores.csv"
        for cell in ["1.5", "100.0", "0.0", "000.0", "05.5", "100.1", "1000.0", "10000", "x00.0",
                     "10.00", "5.", ".5", "-5.5", "+5.5", "1e1", "5_0.5", "5.5\u3000", "\u0665.5"]:
            path.write_text(f"university_id,form,basis,score\nU1,state_funded,competition,{cell}\n",
                            encoding="utf-8")
            assert _load_outcome(load_csv, str(path)) == _load_outcome(_check_rows, str(path)), cell

    @pytest.mark.parametrize("row", [
        # a NUL loads on Python 3.11 and later and is a csv.Error before
        pytest.param(b"U\x001,state_funded,competition,60\n", id="nul"),
        pytest.param(b"U1,state_funded,competition,60\rU2,state_funded,competition,70\n",
                     id="bare-cr"),
        pytest.param(b"U1,state_funded,competition,60\r\r\n", id="cr-before-crlf"),
        pytest.param(b'"U1",state_funded,competition,60\n', id="quote"),
        # every field under the csv field size limit, the line over it
        pytest.param(b"U1,state_funded," + b"x" * 70_000 + b"," + b" " * 70_000 + b"60\n",
                     id="long-line"),
        pytest.param(b"U" * (csv.field_size_limit() + 1) + b",state_funded,competition,60\n",
                     id="long-field"),
    ])
    def test_files_the_bulk_pass_hands_over(self, tmp_path, row):
        path = tmp_path / "students.csv"
        path.write_bytes(b"university_id,form,basis,score\n" + row + b"U2,state_funded,benefit,50\n")
        assert _read_columns(str(path), "unlabeled") is None
        assert _load_outcome(load_csv, str(path)) == _load_outcome(_check_rows, str(path))

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
        data = json.loads(Path(out).read_text(encoding="utf-8"))
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
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["spec"] == "uniform:k=3"

    def test_bad_ideal_exits_2(self, students_csv, capsys):
        code = main(["analyze", "--input", students_csv, "--ideal", "nope:k=1"])
        assert code == 2
        assert "unknown ideal kind" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--ideal", "nope:k=1"], "error: unknown ideal kind 'nope'"),
        (["whatif", "--ideal", "nope:k=1", "--floors", "50"], "error: unknown ideal kind 'nope'"),
        (["whatif", "--ideal", "desired:breaks=60", "--floors", "50,a"],
         "error: floors '50,a' must be comma-separated numbers"),
    ], ids=["analyze-ideal", "whatif-ideal", "whatif-floors"])
    def test_bad_arguments_exit_2_before_loading(self, students_csv, capsys, monkeypatch, argv,
                                                 message):
        loads = []
        load = unihet.cli.load_csv
        monkeypatch.setattr(unihet.cli, "load_csv",
                            lambda *args, **kwargs: loads.append(args) or load(*args, **kwargs))
        assert main([argv[0], "--input", students_csv, *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert loads == []

    def test_exclusion_needs_tier_scheme(self, students_csv, capsys):
        code = main([
            "analyze", "--input", students_csv,
            "--ideal", "clustered:k=2", "--exclude-below", "60",
        ])
        assert code == 2
        assert "tier-scheme" in capsys.readouterr().err

    def test_missing_scores_name_the_flag(self, gaps_csv, capsys):
        assert main(["analyze", "--input", gaps_csv, "--ideal", "clustered:k=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 7 records have missing scores") and "--drop-missing" in err

    @pytest.mark.parametrize("ideal", ["clustered:k=2", "uniform:k=2", "desired:breaks=60"])
    def test_single_university_names_the_slice(self, tmp_path, capsys, ideal):
        path = tmp_path / "one.csv"
        path.write_text(
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,60\n"
            "U1,state_funded,competition,70\n",
            encoding="utf-8",
        )
        code = main(["analyze", "--input", str(path), "--ideal", ideal,
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: slice 'all' has 1 universities; at least 2 are needed\n"
        )

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
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["floor"] for r in rows] == ["40.0", "60.0", "90.0"]
        assert rows[2]["feasible"] == "0"

    def test_requires_tier_scheme(self, students_csv, capsys):
        code = main([
            "whatif", "--input", students_csv,
            "--ideal", "clustered:k=2", "--floors", "50",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: whatif needs a tier-scheme ideal (desired:...)\n"

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
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["university_id"] for r in rows} == {"E1", "E2", "M1", "M2", "W1", "W2"}

    def test_json_min_max(self, tmp_path, students_csv):
        out = str(tmp_path / "plot.json")
        code = main([
            "plotdata", "--input", students_csv,
            "--interval-method", "min_max", "--format", "json", "--out", out,
        ])
        assert code == 0
        rows = json.loads(Path(out).read_text(encoding="utf-8"))
        w2 = next(r for r in rows if r["university_id"] == "W2")
        assert (w2["interval_lo"], w2["interval_hi"]) == (27.0, 83.0)


class TestWarnings:
    """A package warning reaches a CLI user as one ``warning:`` line."""

    @pytest.fixture
    def one_tuition_csv(self, tmp_path):
        path = tmp_path / "forms.csv"
        path.write_text(
            "university_id,form,basis,score\n"
            "U1,state_funded,competition,50\n"
            "U1,tuition_based,competition,55\n"
            "U2,state_funded,competition,60\n"
            "U3,state_funded,competition,70\n",
            encoding="utf-8",
        )
        return str(path)

    def test_plotdata_split_by_form(self, tmp_path, one_tuition_csv, capsys):
        argv = ["plotdata", "--split-by-form", "--input", one_tuition_csv,
                "--out", str(tmp_path / "plot.json")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: no usable scores for: U2/tuition_based, U3/tuition_based\n"
        )

    def test_analyze_split_by_form(self, tmp_path, one_tuition_csv, capsys):
        argv = ["analyze", "--split-by-form", "--ideal", "clustered:k=2",
                "--input", one_tuition_csv, "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: no usable scores for: U2/tuition_based, U3/tuition_based\n"
            "warning: form 'tuition_based' has 1 universities with scores; slice skipped\n"
        )

    def test_error_filters_still_raise(self, tmp_path, one_tuition_csv):
        argv = ["plotdata", "--split-by-form", "--input", one_tuition_csv,
                "--out", str(tmp_path / "plot.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="no usable scores"):
                main(argv)


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
            capture_output=True, encoding="utf-8", env=env, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "impute" in result.stdout and "plotdata" in result.stdout

    def test_start_up_skips_the_statistics_module(self, tmp_path):
        # statistics pulls in fractions and decimal, a few ms on every CLI start
        src = str(Path(unihet.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, unihet.cli; print(sorted({'statistics', 'fractions'} & set(sys.modules)))"],
            capture_output=True, encoding="utf-8", env=dict(os.environ, PYTHONPATH=src),
            cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_impute_skips_numpy_ma(self, tmp_path, gaps_csv):
        # np.unique imports numpy.ma, about 0.9 MB of resident memory per run
        src = str(Path(unihet.__file__).resolve().parents[1])
        argv = ["impute", "--input", gaps_csv, "--out", str(tmp_path / "filled.csv"),
                "--seed", "42", "--min-students", "10"]
        result = subprocess.run(
            [sys.executable, "-c",
             f"import sys, unihet.cli; print(unihet.cli.main({argv!r}), 'numpy.ma' in sys.modules)"],
            capture_output=True, encoding="utf-8", env=dict(os.environ, PYTHONPATH=src),
            cwd=tmp_path, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "filled 2 " in result.stdout  # the gaps were drawn
        assert result.stdout.endswith("\n0 False\n")

    def test_ids_print_escaped_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "students.csv"
        path.write_text("university_id,form,basis,score\n" + "".join(
            f"{university},state_funded,competition,{score}\n"
            for university, n in (("МГУ", 8), ("СПбГУ", 5)) for score in range(60, 60 + n)
        ), encoding="utf-8")
        out = tmp_path / "filled.csv"
        src = str(Path(unihet.__file__).resolve().parents[1])
        locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        result = subprocess.run(
            [sys.executable, "-m", "unihet", "impute", "--input", str(path), "--out", str(out),
             "--min-students", "6"],
            capture_output=True, env=dict(os.environ, PYTHONPATH=src, **locale), cwd=tmp_path,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert b"\\u0421\\u041f\\u0431\\u0413\\u0423: too_few_students" in result.stdout
        assert "СПбГУ".encode() not in out.read_bytes()
        assert "МГУ".encode() in out.read_bytes()

    def test_outputs_are_utf8_under_any_locale(self, tmp_path):
        # the paper's cohorts have Cyrillic university names
        path = tmp_path / "students.csv"
        path.write_text("university_id,form,basis,score\n" + "".join(
            f"{university},state_funded,competition,{score}\n"
            for university, base in (("МГУ", 80), ("СПбГУ", 60)) for score in range(base, base + 5)
        ), encoding="utf-8")
        src = str(Path(unihet.__file__).resolve().parents[1])
        written = []
        for locale in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}):
            out = tmp_path / f"plot{len(written)}.csv"
            result = subprocess.run(
                [sys.executable, "-m", "unihet", "plotdata", "--input", str(path),
                 "--format", "csv", "--out", str(out)],
                capture_output=True, env=dict(os.environ, PYTHONPATH=src, **locale), cwd=tmp_path,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert "СПбГУ".encode() in written[0]
