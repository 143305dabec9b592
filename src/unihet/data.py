"""Student records: the row type, the columnar dataset, CSV input/output
and aggregation.

The on-disk format is a CSV with header ``university_id,form,basis,score``
and optionally a fifth ``imputed`` column (0/1).  An empty or zero score
cell means the score is unknown.  Unknown admission bases are folded into
``other``; an unknown study form is an error.

A :class:`Dataset` stores its records as columns (university, form and
basis codes, scores with NaN where missing, an imputed mask).  Loading,
exclusion, gap filling, aggregation and saving all work on those columns;
:class:`StudentRecord` objects are built only when a caller asks for rows.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .orders import UniversityStats, _group_stats

__all__ = [
    "FORMS",
    "BASES",
    "StudentRecord",
    "Dataset",
    "DatasetError",
    "load_csv",
    "save_csv",
    "aggregate",
]

FORMS = ("state_funded", "tuition_based")
BASES = ("competition", "olympiad", "out_of_competition", "targeted", "benefit", "other")

CSV_HEADER = ("university_id", "form", "basis", "score")
CSV_HEADER_IMPUTED = CSV_HEADER + ("imputed",)

_FORM_CODE = {form: code for code, form in enumerate(FORMS)}
_BASIS_CODE = {basis: code for code, basis in enumerate(BASES)}
_SAVE_CHUNK = 1024  # rows per write: the output is never built whole
_READ_BLOCK = 1 << 17  # bytes per read when loading, then read on to the end of that line
_KEY_BYTES = 256  # cells up to this long are compared in bulk; a longer one is decoded alone

_HEADER_WIDTH = {",".join(CSV_HEADER).encode(): 4, ",".join(CSV_HEADER_IMPUTED).encode(): 5}
_TYPECODES = "ibbdb"  # of the loaders' code, form, basis, score and flag columns
_FLAG_CODE = {"0": 0, "1": 1}


class DatasetError(ValueError):
    """Malformed dataset file or infeasible generation request."""


@dataclass(frozen=True, slots=True)
class StudentRecord:
    """One admitted student: university, study form, admission basis, score.

    ``university`` is non-empty, neither starts nor ends with whitespace
    (the loader strips every cell), and contains no ``/``, which separates
    university and form in per-form labels.  ``score`` is None when unknown;
    a score of 0 is treated as unknown too.
    Known scores lie in (0, 100].  ``imputed`` marks values produced by
    gap filling rather than observed.
    """

    university: str
    form: str
    basis: str
    score: float | None = None
    imputed: bool = False

    def __post_init__(self) -> None:
        _university(self.university)
        _form(self.form)
        if self.basis not in BASES:
            raise ValueError(f"unknown admission basis {self.basis!r}; expected one of {BASES}")
        if self.score is not None:
            score = _score(self.score)
            object.__setattr__(self, "score", None if math.isnan(score) else score)

    @property
    def missing(self) -> bool:
        return self.score is None


class Dataset:
    """Student records stored as columns.

    Row ``i`` is university ``universities()[university_codes[i]]``, form
    ``FORMS[form_codes[i]]``, basis ``BASES[basis_codes[i]]``, score
    ``scores[i]`` (NaN when missing) and flag ``imputed[i]``.  University
    codes number the universities in order of first appearance, and every
    university in the name table has at least one row.  The columns are
    read-only numpy arrays.

    ``Dataset(records)`` builds the columns from :class:`StudentRecord`
    rows; iterating a dataset, or reading ``records``, builds the rows back.
    """

    __slots__ = ("_names", "university_codes", "form_codes", "basis_codes", "scores", "imputed")

    def __init__(self, records: Iterable[StudentRecord] = ()):
        records = tuple(records)
        names: dict[str, int] = {}
        codes = [names.setdefault(r.university, len(names)) for r in records]
        self._set(
            tuple(names),
            np.array(codes, np.int32),
            np.array([_FORM_CODE[r.form] for r in records], np.int8),
            np.array([_BASIS_CODE[r.basis] for r in records], np.int8),
            np.array([math.nan if r.score is None else r.score for r in records], float),
            np.array([r.imputed for r in records], bool),
        )

    @classmethod
    def _from_columns(cls, names, university_codes, form_codes, basis_codes, scores,
                      imputed) -> "Dataset":
        dataset = cls.__new__(cls)
        dataset._set(names, university_codes, form_codes, basis_codes, scores, imputed)
        return dataset

    def _set(self, names, university_codes, form_codes, basis_codes, scores, imputed) -> None:
        self._names = names
        for column in (university_codes, form_codes, basis_codes, scores, imputed):
            column.flags.writeable = False
        self.university_codes = university_codes
        self.form_codes = form_codes
        self.basis_codes = basis_codes
        self.scores = scores
        self.imputed = imputed

    def _select(self, rows: np.ndarray) -> "Dataset":
        """The rows where the mask ``rows`` is set, universities renumbered."""
        codes = self.university_codes[rows]
        present = np.bincount(codes, minlength=len(self._names)) > 0
        renumber = (np.cumsum(present) - 1).astype(np.int32)
        names = tuple(n for n, keep in zip(self._names, present.tolist()) if keep)
        return Dataset._from_columns(
            names, renumber[codes], self.form_codes[rows], self.basis_codes[rows],
            self.scores[rows], self.imputed[rows]
        )

    def _with_scores(self, scores: np.ndarray, imputed: np.ndarray) -> "Dataset":
        return Dataset._from_columns(
            self._names, self.university_codes, self.form_codes, self.basis_codes, scores, imputed
        )

    @property
    def n_records(self) -> int:
        return len(self.scores)

    def universities(self) -> tuple[str, ...]:
        """University identifiers in first-appearance order."""
        return self._names

    def __iter__(self) -> Iterator[StudentRecord]:
        names = self._names
        columns = (
            self.university_codes.tolist(), self.form_codes.tolist(),
            self.basis_codes.tolist(), self.scores.tolist(), self.imputed.tolist(),
        )
        for u, f, b, score, imputed in zip(*columns):
            yield StudentRecord(
                names[u], FORMS[f], BASES[b], None if math.isnan(score) else score, imputed
            )

    @property
    def records(self) -> tuple[StudentRecord, ...]:
        """The rows as :class:`StudentRecord` objects, built on each access."""
        return tuple(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        # codes follow first appearance, so equal rows mean equal columns
        return (
            self._names == other._names
            and np.array_equal(self.university_codes, other.university_codes)
            and np.array_equal(self.form_codes, other.form_codes)
            and np.array_equal(self.basis_codes, other.basis_codes)
            and np.array_equal(self.scores, other.scores, equal_nan=True)
            and np.array_equal(self.imputed, other.imputed)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Dataset(<{self.n_records} records, {len(self._names)} universities>)"


def load_csv(path: str) -> Dataset:
    """Read a student-level CSV in UTF-8, with or without a byte-order mark.

    The header must be ``university_id,form,basis,score`` with an optional
    trailing ``imputed`` column.  Score cells that are empty or 0 load as
    missing.  Any row problem, undecodable bytes included, is reported with
    its line number.

    The file is parsed into columns in blocks of whole lines, each a read
    of 128 KiB completed to its line end, and checked in bulk: cells spelled
    as the loader stores them are read straight from the bytes, and every
    other id, form, basis or flag cell takes its rule once per run of equal
    cells.  Only when that check fails, or the file holds bytes the bulk
    pass leaves to the csv reader (a ``"`` among them), is it read again
    row by row, to name the first faulty physical line or to return its rows.
    """
    dataset = _read_columns(path)
    if dataset is None:
        dataset = _check_rows(path)  # raises on the first bad line
    return dataset


# The cell rules.  Each takes a stripped cell and returns what the columns
# store, or raises ValueError with the cause a load error names.

def _university(cell: str) -> str:
    if not cell:
        raise ValueError("university identifier must be non-empty")
    if cell != cell.strip():  # a saved file's cells load stripped
        raise ValueError(f"university identifier {cell!r} must not start or end with whitespace")
    if "/" in cell:
        raise ValueError(f"university identifier {cell!r} must not contain '/'")
    return cell


def _form(cell: str) -> int:
    if cell not in FORMS:
        raise ValueError(f"unknown study form {cell!r}; expected one of {FORMS}")
    return _FORM_CODE[cell]


def _basis(cell: str) -> int:
    """Unknown bases fold into ``other``."""
    return _BASIS_CODE.get(cell, _BASIS_CODE["other"])


def _flag(cell: str) -> int:
    if cell not in _FLAG_CODE:
        raise ValueError(f"imputed flag must be 0 or 1, got {cell!r}")
    return _FLAG_CODE[cell]


def _number(cell: str) -> float:
    """A score cell's number; empty reads as 0 (missing).  :func:`_score` checks the range."""
    try:
        return float(cell) if cell else 0.0
    except ValueError:
        raise ValueError(f"score {cell!r} is not a number") from None


def _score(value: float) -> float:
    """A score as stored: NaN for 0 (missing), else a float in (0, 100]."""
    score = float(value)
    if score == 0.0:
        return math.nan
    if not 0.0 < score <= 100.0:  # False for NaN too
        raise ValueError(f"score must lie in (0, 100], got {value}")
    return score


def _dataset(names: dict[str, int], columns: tuple[array, ...]) -> Dataset:
    """The dataset of the code, form, basis, score and flag columns both load passes fill."""
    codes, forms, bases, scores, flags = map(np.asarray, columns)
    return Dataset._from_columns(tuple(names), codes, forms, bases, scores, flags.view(bool))


def _read_columns(path: str) -> Dataset | None:
    """The file as columns, or None when the bulk pass cannot vouch for it.

    The file is read in binary blocks of whole lines, and each block is
    split into cells with numpy (see :func:`_parse_block`).  None means the
    row checker must read the file: it holds a ``"``, a NUL, a CR outside
    a CRLF pair, bytes that are not UTF-8 or a line longer than the csv
    field size limit, so the csv reader might split it otherwise, or some
    row breaks a rule.
    """
    limit = csv.field_size_limit()  # the row checker's reader enforces it
    names: dict[str, int] = {}
    columns = tuple(map(array, _TYPECODES))
    with open(path, "rb") as fh:
        blocks = _blocks(fh, limit)
        header, _, block = next(blocks, b"").partition(b"\n")
        width = _HEADER_WIDTH.get(header.removeprefix(b"\xef\xbb\xbf").removesuffix(b"\r"))
        if width is None:
            return None
        while block is not None:
            if not _parse_block(block, width, limit, names, columns):
                return None
            del block  # before the next read, so that one parsed block is held at a time
            block = next(blocks, None)
    return _dataset(names, columns)


def _blocks(fh, limit: int) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks of whole lines, each followed by
    ``_BLOCK_END``.

    A read of ``_READ_BLOCK`` bytes that stops inside a line is completed
    with the rest of that line, or with ``limit + 1`` bytes of it, which the
    caller rejects as too long.  The 8 line ends of ``_BLOCK_END`` read as
    blank lines, and let a window of 8 bytes start at any byte of the
    block.  A last line without a line end gets them too.
    """
    while block := fh.read(_READ_BLOCK):
        rest = b"" if block.endswith(b"\n") else fh.readline(limit + 1)
        block = b"".join((block, rest, _BLOCK_END))  # rebound: one copy held while parsed
        yield block


_BLOCK_END = b"\n" * 8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # keep the first k bytes
_TAIL_POSITIONS = np.arange(5)
_TENTHS = np.array([1000.0, 100.0, 10.0, 0.0, 1.0])  # of the digits in a score's "ddd.d"


def _parse_block(text: bytes, width: int, limit: int, names: dict[str, int], columns) -> bool:
    """Append the rows of ``text``, a block from :func:`_blocks`, to
    ``columns``; False when the block has a fault or bytes the csv reader
    might read differently.

    Line ends and commas give each cell's byte span, and fixed-width
    windows of the bytes give its content.  Cells spelled exactly as the
    loader stores them are read in bulk: a form or basis name, a ``0``/``1``
    flag, a score ``d.d`` to ``ddd.d`` up to 100, whose digits are an exact
    integer of tenths, so dividing it by 10.0 gives the bits of ``float``,
    and an empty score cell, which is missing.  Ids, and the form, basis
    and flag cells that are not such a name, are decoded through
    :func:`_decoded`, once per run of equal cells.  The other score cells
    (a filled score's repr and a padded blank among them) are decoded and
    take the cell rules one at a time.
    """
    if b'"' in text or b"\0" in text:
        return False
    if not text.isascii():
        try:
            text.decode()  # lines end at ASCII bytes, so each cell decodes alone too
        except UnicodeDecodeError:
            return False
    a = np.frombuffer(text, np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    crlf = a[ends - 1] == ord("\r")  # at the first line, a[-1] is a block end
    if np.count_nonzero(a == ord("\r")) != np.count_nonzero(crlf):
        return False  # a CR that does not end a line together with its LF
    ends -= crlf
    commas = np.flatnonzero(a == ord(","))
    n_commas = np.diff(np.searchsorted(commas, ends), prepend=0)
    rows = ends > starts  # blank lines are skipped
    if (n_commas[rows] != width - 1).any() or (ends - starts > limit).any():
        return False
    starts, ends = starts[rows], ends[rows]
    n = len(starts)
    if not n:
        return True
    cuts = commas.reshape(n, width - 1)
    keys = sliding_window_view(a, 8).view("<u8")[:, 0]  # the 8 bytes from each position

    score_end = cuts[:, 3] if width == 5 else ends
    score_len = score_end - cuts[:, 2] - 1
    # a known form puts each score end 16 bytes or more into the block
    tail = keys[score_end - 8].view(np.uint8).reshape(n, 8)[:, 3:]  # a score's last 5 bytes
    digits = tail - np.uint8(ord("0"))  # 0..9 at a digit, 10 or more elsewhere
    inside = _TAIL_POSITIONS >= (5 - score_len)[:, None]
    fits = (digits < 10) | ~inside
    fits[:, 3] = tail[:, 3] == ord(".")
    scores = ((digits * inside) @ _TENTHS) / 10.0  # an exact integer of tenths, divided once
    short = (score_len >= 3) & (score_len <= 5) & fits.all(axis=1) & (scores <= 100.0)
    scores[scores == 0.0] = math.nan  # a blank cell has no digit inside, so it is 0.0 here too
    odd = np.flatnonzero(~short & (score_len > 0))
    try:
        codes = _decoded(text, keys, starts, cuts[:, 0],
                         lambda cell: names.setdefault(_university(cell), len(names)), np.int32)
        forms = _codes(text, keys, cuts[:, 0] + 1, cuts[:, 1], _FORM_CODE, _form)
        bases = _codes(text, keys, cuts[:, 1] + 1, cuts[:, 2], _BASIS_CODE, _basis)
        flags = (
            _codes(text, keys, cuts[:, 3] + 1, ends, _FLAG_CODE, _flag)
            if width == 5 else np.zeros(n, np.int8)
        )
        scores[odd] = [
            _score(_number(cell)) for cell in _cells(text, cuts[odd, 2] + 1, score_end[odd])
        ]
    except ValueError:
        return False

    for buffer, column in zip(columns, (codes, forms, bases, scores, flags)):
        buffer.frombytes(memoryview(column).cast("B"))
    return True


def _key(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, size: int) -> list[np.ndarray]:
    """The first ``size`` bytes of each cell ``[lo, hi)``: the 8-byte words of ``keys`` at
    ``lo``, ``lo + 8``, ... (clamped to ``hi``), with the bytes past ``hi`` masked off.
    Two cells of one length up to ``size`` bytes are equal exactly when their keys are."""
    return [keys[np.minimum(lo + offset, hi)] & _LOW_BYTES[np.clip(hi - lo - offset, 0, 8)]
            for offset in range(0, size, 8)]


def _decoded(text: bytes, keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, rule,
             dtype) -> np.ndarray:
    """``rule`` of each decoded, stripped cell ``[lo, hi)``, as a ``dtype`` array; a ValueError
    from ``rule`` passes on.  ``rule`` runs once per run of cells with equal bytes: a cell is
    compared with the one before it by :func:`_key` when their lengths agree and are at most
    ``_KEY_BYTES``, else it starts a run."""
    size = hi - lo
    same = (size <= _KEY_BYTES) & np.concatenate(([False], size[1:] == size[:-1]))
    for word in _key(keys, lo, hi, size[same].max(initial=0)):
        same[1:] &= word[1:] == word[:-1]
    runs = np.flatnonzero(~same)
    values = np.array([rule(cell) for cell in _cells(text, lo[runs], hi[runs])], dtype)
    return np.repeat(values, np.diff(runs, append=len(lo)))


def _codes(text: bytes, keys: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           table: dict[str, int], rule) -> np.ndarray:
    """The code of each cell ``[lo, hi)``: in bulk where its bytes are a word of ``table``
    (the words ``rule`` knows and their codes), else from :func:`_decoded` with ``rule``."""
    codes = np.full(len(lo), -1, np.int8)
    length = hi - lo
    key = _key(keys, lo, hi, max(map(len, table)))
    for word, code in table.items():
        hit = length == len(word)
        for offset, mine in zip(range(0, len(word), 8), key):
            hit &= mine == int.from_bytes(word[offset:offset + 8].encode(), "little")
        codes[hit] = code
    odd = np.flatnonzero(codes < 0)
    if len(odd):  # in most blocks every cell is a word: no run pass, no second key
        codes[odd] = _decoded(text, keys, lo[odd], hi[odd], rule, np.int8)
    return codes


def _cells(text: bytes, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """The cells ``text[lo:hi]``, decoded and stripped as the row checker does."""
    return [text[i:j].decode().strip() for i, j in zip(lo.tolist(), hi.tolist())]


def _check_rows(path: str) -> Dataset:
    """Read the file row by row; raise :class:`DatasetError` naming the first
    faulty line, or return its dataset.

    The strict UTF-8 stream decodes ahead of the csv reader, so when it
    fails, the file is read again with each undecodable byte escaped and
    checked as the first rule of its line.
    """
    try:
        names, columns = _read_file(path, "strict")
    except UnicodeDecodeError:
        names, columns = _read_file(path, "surrogateescape")
    return _dataset(names, columns)


def _read_file(path: str, errors: str) -> tuple[dict[str, int], tuple[array, ...]]:
    """:func:`_read_rows` of the file, decoded with ``errors``."""
    with open(path, newline="", encoding="utf-8-sig", errors=errors) as fh:
        reader = csv.reader(fh if errors == "strict" else _decodable(fh, path))
        try:
            return _read_rows(reader, path)
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None


def _read_rows(reader, path: str) -> tuple[dict[str, int], tuple[array, ...]]:
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise DatasetError(f"{path}: file is empty") from None
    width = {CSV_HEADER: 4, CSV_HEADER_IMPUTED: 5}.get(header)
    if width is None:
        raise DatasetError(
            f"{path}: unexpected header {','.join(header)!r}; "
            f"expected {','.join(CSV_HEADER)!r} with optional 'imputed'"
        )
    names: dict[str, int] = {}
    columns = tuple(map(array, _TYPECODES))
    add_code, add_form, add_basis, add_score, add_flag = (column.append for column in columns)
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise DatasetError(f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}")
        try:
            # the rules run in this order, so a row with two faults names the first
            number = _number(row[3].strip())
            flag = _flag(row[4].strip()) if width == 5 else 0
            code = names.setdefault(_university(row[0].strip()), len(names))
            form = _form(row[1].strip())
            score = _score(number)
        except ValueError as exc:
            # physical line, so quoted line breaks count
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
        add_code(code)
        add_form(form)
        add_basis(_basis(row[2].strip()))
        add_score(score)
        add_flag(flag)
    return names, columns


def _decodable(lines: Iterable[str], path: str) -> Iterator[str]:
    """The lines of a stream read with ``errors="surrogateescape"``; the first one
    that holds bytes that are not UTF-8 raises :class:`DatasetError` instead."""
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode(errors="surrogateescape").decode()  # the line's own bytes
        except UnicodeDecodeError as exc:
            raise DatasetError(
                f"{path}:{lineno}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
            ) from None
        yield line


def _csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as ``csv.writer`` writes it as a field: quoted when needed."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value,))
        fields.append(buf.getvalue()[:-2])  # drop the "\r\n"
    return fields


def save_csv(dataset: Dataset, path: str, include_imputed: bool | None = None) -> None:
    """Write a dataset back to CSV, with ``csv.writer``'s quoting and ``\\r\\n`` lines.

    ``include_imputed`` controls the fifth ``imputed`` column: ``True``
    always writes it, ``False`` never does, and by default it is written
    when some record carries the flag, so a file whose flags are all 0
    saves back without it.  Scores are written as ``repr`` of the float, and
    missing scores as an empty cell.

    Each write of ``_SAVE_CHUNK`` rows is one ``b"".join`` of encoded cells
    taken by code from object tables: the quoted ids by university, the
    ``,form,basis,`` middles by form and basis, the line ends by flag and
    the text ``d.d`` of each score ``t / 10`` with an integer ``t`` from 1 to
    1000, which is its ``repr``.  The write's other scores are filled in as
    their ``repr``.
    """
    if include_imputed is None:
        include_imputed = bool(dataset.imputed.any())
    header = CSV_HEADER_IMPUTED if include_imputed else CSV_HEADER
    ids = np.array([field.encode() for field in _csv_fields(dataset.universities())], object)
    middles = np.array([f",{form},{basis},".encode() for form in FORMS for basis in BASES], object)
    ends = np.array([b",0\r\n", b",1\r\n"] if include_imputed else [b"\r\n", b"\r\n"], object)
    tenths = np.array([b""] + [b"%d.%d" % divmod(t, 10) for t in range(1, 1001)], object)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, dataset.n_records, _SAVE_CHUNK):
            chunk = slice(start, start + _SAVE_CHUNK)
            scores = dataset.scores[chunk]
            t = np.rint(scores * 10)
            exact = (t / 10 == scores) & (t >= 1) & (t <= 1000)  # False for NaN
            text = tenths[np.where(exact, t, 0).astype(np.intp)]  # an empty cell where not exact
            odd = np.flatnonzero(~exact & ~np.isnan(scores))  # the other scores
            text[odd] = [repr(x).encode() for x in scores[odd].tolist()]
            middle = dataset.form_codes[chunk] * len(BASES) + dataset.basis_codes[chunk]
            cells = (ids[dataset.university_codes[chunk]], middles[middle], text,
                     ends[dataset.imputed[chunk].view(np.int8)])
            fh.write(b"".join(np.stack(cells, 1).ravel().tolist()))


def _group_keys(dataset: Dataset, by_form: bool = True) -> tuple[np.ndarray, list]:
    """Each row's ``int32`` group key and the (university, form) of each key: the groups
    are (university, form), or universities with form None unless ``by_form``."""
    forms = FORMS if by_form else (None,)
    keys = dataset.university_codes * len(forms)
    if by_form:
        keys += dataset.form_codes
    return keys, [(university, form) for university in dataset.universities() for form in forms]


def aggregate(
    dataset: Dataset, split_by_form: bool = False, drop_missing: bool = False
) -> UniversityStats:
    """Collapse student records to one table of per-university score statistics.

    With ``split_by_form`` each (university, form) combination becomes its
    own row, labelled ``<university>/<form>``, and the table's ``forms``
    column names each row's form; combinations without any student are
    skipped with a warning.  Records with missing scores are an error unless
    ``drop_missing`` asks to ignore them.  Rows follow the universities'
    first appearance, then ``FORMS`` order.  The table keeps no raw scores:
    each row holds their mean, std, count, lowest and highest.

    One :func:`~unihet.orders._group_stats` call over the observed scores
    gives every column, with no object per university.
    """
    observed = ~np.isnan(dataset.scores)
    n_missing = dataset.n_records - int(observed.sum())
    if n_missing and not drop_missing:
        raise ValueError(
            f"{n_missing} records have missing scores; fill them first, or pass "
            "drop_missing=True (--drop-missing on the command line)"
        )
    keys, groups = _group_keys(dataset, split_by_form)
    rows = observed if n_missing else slice(None)  # a slice takes views, not copies
    count, mean, std, low, high = _group_stats(dataset.scores[rows], keys[rows], len(groups), 0)
    labels = [university if form is None else f"{university}/{form}" for university, form in groups]
    skipped = [labels[key] for key in np.flatnonzero(count == 0).tolist()]
    if skipped:
        warnings.warn("no usable scores for: " + ", ".join(skipped), stacklevel=2)
    present = np.flatnonzero(count)
    if not len(present):
        raise ValueError("aggregation produced no universities")
    kept = present.tolist()
    forms = [groups[key][1] for key in kept] if split_by_form else None
    return UniversityStats([labels[key] for key in kept], mean[present], std[present],
                           count[present], low[present], high[present], forms)
