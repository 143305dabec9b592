"""Student records: the row type, the columnar dataset, CSV input/output,
aggregation and a synthesizer.

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
import random
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .orders import UniversityStats

__all__ = [
    "FORMS",
    "BASES",
    "StudentRecord",
    "Dataset",
    "SynthSpec",
    "DatasetError",
    "load_csv",
    "save_csv",
    "aggregate",
    "synth",
]

FORMS = ("state_funded", "tuition_based")
BASES = ("competition", "olympiad", "out_of_competition", "targeted", "benefit", "other")

CSV_HEADER = ("university_id", "form", "basis", "score")
CSV_HEADER_IMPUTED = CSV_HEADER + ("imputed",)

_FORM_CODE = {form: code for code, form in enumerate(FORMS)}
_BASIS_CODE = {basis: code for code, basis in enumerate(BASES)}
_SAVE_CHUNK = 8192  # rows per write: the output is never built as one string


class DatasetError(ValueError):
    """Malformed dataset file or infeasible generation request."""


@dataclass(frozen=True, slots=True)
class StudentRecord:
    """One admitted student: university, study form, admission basis, score.

    ``university`` is non-empty and contains no ``/``, which separates
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
        if not self.university:
            raise ValueError("university identifier must be non-empty")
        if "/" in self.university:
            raise ValueError(f"university identifier {self.university!r} must not contain '/'")
        if self.form not in FORMS:
            raise ValueError(f"unknown study form {self.form!r}; expected one of {FORMS}")
        if self.basis not in BASES:
            raise ValueError(f"unknown admission basis {self.basis!r}; expected one of {BASES}")
        if self.score is not None:
            score = float(self.score)
            if score == 0.0:
                object.__setattr__(self, "score", None)
                return
            if not math.isfinite(score) or not 0.0 < score <= 100.0:
                raise ValueError(f"score must lie in (0, 100], got {self.score}")
            object.__setattr__(self, "score", score)

    @property
    def missing(self) -> bool:
        return self.score is None


class Dataset:
    """Student records stored as columns, with a group label.

    The label names the cohort (a study field, a year, a synthetic batch)
    and travels into reports.  Row ``i`` is university
    ``universities()[university_codes[i]]``, form ``FORMS[form_codes[i]]``,
    basis ``BASES[basis_codes[i]]``, score ``scores[i]`` (NaN when missing)
    and flag ``imputed[i]``.  University codes number the universities in
    order of first appearance, and every university in the name table has
    at least one row.  The columns are read-only numpy arrays.

    ``Dataset(records, label)`` builds the columns from
    :class:`StudentRecord` rows; iterating a dataset, or reading
    ``records``, builds the rows back.
    """

    __slots__ = (
        "group_label", "_names", "university_codes", "form_codes", "basis_codes",
        "scores", "imputed",
    )

    def __init__(self, records: Iterable[StudentRecord] = (), group_label: str = "unlabeled"):
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
            group_label,
        )

    @classmethod
    def _from_columns(cls, names, university_codes, form_codes, basis_codes, scores, imputed,
                      group_label) -> "Dataset":
        dataset = cls.__new__(cls)
        dataset._set(names, university_codes, form_codes, basis_codes, scores, imputed,
                     group_label)
        return dataset

    def _set(self, names, university_codes, form_codes, basis_codes, scores, imputed,
             group_label) -> None:
        if not group_label:
            raise ValueError("group label must be non-empty")
        self.group_label = group_label
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
            self.scores[rows], self.imputed[rows], self.group_label,
        )

    def _with_scores(self, scores: np.ndarray, imputed: np.ndarray) -> "Dataset":
        return Dataset._from_columns(
            self._names, self.university_codes, self.form_codes, self.basis_codes,
            scores, imputed, self.group_label,
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
            self.group_label == other.group_label
            and self._names == other._names
            and np.array_equal(self.university_codes, other.university_codes)
            and np.array_equal(self.form_codes, other.form_codes)
            and np.array_equal(self.basis_codes, other.basis_codes)
            and np.array_equal(self.scores, other.scores, equal_nan=True)
            and np.array_equal(self.imputed, other.imputed)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Dataset(<{self.n_records} records, {len(self._names)} universities>, "
            f"group_label={self.group_label!r})"
        )


def load_csv(path: str, group_label: str | None = None) -> Dataset:
    """Read a student-level CSV in UTF-8.

    The header must be ``university_id,form,basis,score`` with an optional
    trailing ``imputed`` column.  Score cells that are empty or 0 load as
    missing.  Any row problem, undecodable bytes included, is reported with
    its line number.

    The file is read once into columns and checked as a whole.  Only when
    that check fails is it read again row by row, to name the first faulty
    physical line.
    """
    label = group_label or "unlabeled"
    dataset = _read_columns(path, label)
    if dataset is None:
        dataset = Dataset(_check_rows(path), label)  # raises on the first bad line
    return dataset


def _read_columns(path: str, group_label: str) -> Dataset | None:
    """The file as columns, or None when any part of it is malformed.

    Each row becomes a code for its (university, form, basis[, imputed])
    cells, found through a dict of the distinct cell tuples, plus its
    score; the distinct cells and the score column are validated at the
    end, so no row is checked on its own.  An empty score cell is stored as
    0, which means missing as it does in the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header not in (CSV_HEADER, CSV_HEADER_IMPUTED):
                return None
            width = len(header)
            cells = itemgetter(0, 1, 2, 4) if width == 5 else itemgetter(0, 1, 2)
            keys: dict[tuple[str, ...], int] = {}
            codes = array("i")
            scores = array("d")
            lookup, add_code, add_score = keys.get, codes.append, scores.append
            for row in reader:
                if len(row) != width:
                    if row:
                        return None
                    continue  # blank line
                key = cells(row)
                code = lookup(key)
                if code is None:
                    code = keys[key] = len(keys)
                add_code(code)
                score = row[3]
                try:
                    add_score(float(score) if score else 0.0)
                except ValueError:
                    if score.strip():
                        return None
                    add_score(0.0)
    except (csv.Error, UnicodeDecodeError):
        return None

    score_column = np.frombuffer(scores, dtype=float)
    missing = score_column == 0.0
    if not ((score_column > 0.0) & (score_column <= 100.0) | missing).all():
        return None  # NaN, infinite or out of range
    score_column[missing] = math.nan

    names: dict[str, int] = {}
    n_keys = len(keys)
    key_university = np.empty(n_keys, np.int32)
    key_form = np.empty(n_keys, np.int8)
    key_basis = np.empty(n_keys, np.int8)
    key_imputed = np.zeros(n_keys, bool)
    for i, key in enumerate(keys):
        university, form, basis = key[0].strip(), key[1].strip(), key[2].strip()
        flag = key[3].strip() if width == 5 else "0"
        if not university or "/" in university or form not in _FORM_CODE:
            return None
        if flag not in ("0", "1"):
            return None
        # keys are in first-appearance order, so the university codes are too
        key_university[i] = names.setdefault(university, len(names))
        key_form[i] = _FORM_CODE[form]
        key_basis[i] = _BASIS_CODE.get(basis, _BASIS_CODE["other"])
        key_imputed[i] = flag == "1"
    row_keys = np.frombuffer(codes, dtype=np.intc)
    return Dataset._from_columns(
        tuple(names), key_university[row_keys], key_form[row_keys], key_basis[row_keys],
        score_column, key_imputed[row_keys], group_label,
    )


def _check_rows(path: str) -> list[StudentRecord]:
    """Read the file row by row; raise :class:`DatasetError` naming the first
    faulty line, or return the records."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _read_records(reader, path)
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DatasetError(
                f"{path}:{_first_undecodable_line(path)}: "
                f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
            ) from None


def _read_records(reader, path: str) -> list[StudentRecord]:
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise DatasetError(f"{path}: file is empty") from None
    if header == CSV_HEADER:
        has_imputed = False
    elif header == CSV_HEADER_IMPUTED:
        has_imputed = True
    else:
        raise DatasetError(
            f"{path}: unexpected header {','.join(header)!r}; "
            f"expected {','.join(CSV_HEADER)!r} with optional 'imputed'"
        )
    width = 5 if has_imputed else 4
    records = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num  # physical line, so quoted line breaks count
        if len(row) != width:
            raise DatasetError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        university, form, basis = row[0].strip(), row[1].strip(), row[2].strip()
        score_cell = row[3].strip()
        if basis not in BASES:
            basis = "other"
        if score_cell == "":
            score = None
        else:
            try:
                score = float(score_cell)
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: score {score_cell!r} is not a number") from None
        imputed = False
        if has_imputed:
            cell = row[4].strip()
            if cell not in ("0", "1"):
                raise DatasetError(f"{path}:{lineno}: imputed flag must be 0 or 1, got {cell!r}")
            imputed = cell == "1"
        try:
            records.append(StudentRecord(university, form, basis, score, imputed))
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return records


def _first_undecodable_line(path: str) -> int | None:
    """Number of the first line of ``path`` holding bytes that are not UTF-8."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            # surrogateescape maps each undecodable byte to U+DC80..U+DCFF
            if any("\udc80" <= c <= "\udcff" for c in line):
                return lineno
    return None


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

    ``include_imputed`` controls the fifth column; by default it is written
    exactly when some record carries the flag, so a load/save cycle keeps
    the file shape.  Scores are written as ``repr`` of the float, and
    missing scores as an empty cell.
    """
    if include_imputed is None:
        include_imputed = bool(dataset.imputed.any())
    header = CSV_HEADER_IMPUTED if include_imputed else CSV_HEADER
    universities = _csv_fields(dataset.universities())
    # ",<form>,<basis>," for each (form, basis) code pair
    middles = [f",{form},{basis}," for form in FORMS for basis in BASES]
    middle_codes = dataset.form_codes.astype(np.intp) * len(BASES) + dataset.basis_codes
    ends = (",0\r\n", ",1\r\n") if include_imputed else ("\r\n", "\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, dataset.n_records, _SAVE_CHUNK):
            chunk = slice(start, start + _SAVE_CHUNK)
            scores = dataset.scores[chunk]
            texts = list(map(float.__repr__, scores.tolist()))
            for i in np.flatnonzero(np.isnan(scores)).tolist():
                texts[i] = ""
            fh.write("".join(chain.from_iterable(zip(
                map(universities.__getitem__, dataset.university_codes[chunk].tolist()),
                map(middles.__getitem__, middle_codes[chunk].tolist()),
                texts,
                map(ends.__getitem__, dataset.imputed[chunk].tolist()),
            ))))


def aggregate(
    dataset: Dataset, split_by_form: bool = False, drop_missing: bool = False
) -> list[UniversityStats]:
    """Collapse student records to per-university score statistics.

    With ``split_by_form`` each (university, form) combination becomes its
    own entry, labelled ``<university>/<form>``; combinations without any
    student are skipped with a warning.  Records with missing scores are an
    error unless ``drop_missing`` asks to ignore them.  Entries follow the
    universities' first appearance, then ``FORMS`` order, and each keeps
    its scores in record order.
    """
    observed = ~np.isnan(dataset.scores)
    n_missing = dataset.n_records - int(observed.sum())
    if n_missing and not drop_missing:
        raise ValueError(
            f"{n_missing} records have missing scores; fill them first or pass drop_missing=True"
        )
    slice_forms = FORMS if split_by_form else (None,)
    keys = dataset.university_codes.astype(np.intp) * len(slice_forms)
    if split_by_form:
        keys += dataset.form_codes
    keys = keys[observed]
    # one stable sort groups each slice's scores, in record order
    scores = dataset.scores[observed][np.argsort(keys, kind="stable")].tolist()
    names = dataset.universities()
    sizes = np.bincount(keys, minlength=len(names) * len(slice_forms))
    out: list[UniversityStats] = []
    skipped: list[str] = []
    start = 0
    for key, size in enumerate(sizes.tolist()):
        university, f = divmod(key, len(slice_forms))
        form = slice_forms[f]
        label = names[university] if form is None else f"{names[university]}/{form}"
        if size:
            out.append(UniversityStats.from_scores(label, scores[start:start + size], form=form))
            start += size
        else:
            skipped.append(label)
    if skipped:
        warnings.warn(
            "no usable scores for: " + ", ".join(skipped), stacklevel=2
        )
    if not out:
        raise ValueError("aggregation produced no universities")
    return out


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic dataset with exact per-university statistics.

    Each university draws a target mean, standard deviation and student
    count from the given ranges, then receives scores placed symmetrically
    around the mean so that the observed mean and population standard
    deviation hit the targets exactly.  ``missing_frac`` of each
    university's records lose their score (rounded, but always leaving at
    least two observed); ``tuition_frac`` is the chance a record is
    tuition-based rather than state-funded.
    """

    n_universities: int
    students_per_university: tuple[int, int]
    mean_range: tuple[float, float]
    std_range: tuple[float, float]
    missing_frac: float = 0.0
    seed: int = 0
    tuition_frac: float = 0.0
    group_label: str = "synthetic"

    def __post_init__(self) -> None:
        if self.n_universities < 1:
            raise DatasetError("need at least one university")
        lo, hi = self.students_per_university
        if not 2 <= lo <= hi:
            raise DatasetError(f"students_per_university must satisfy 2 <= lo <= hi, got {lo}..{hi}")
        mlo, mhi = self.mean_range
        if not (0.0 < mlo <= mhi <= 100.0):
            raise DatasetError(f"mean range must lie inside (0, 100], got {mlo}..{mhi}")
        slo, shi = self.std_range
        if not (0.0 <= slo <= shi):
            raise DatasetError(f"std range must satisfy 0 <= lo <= hi, got {slo}..{shi}")
        if not 0.0 <= self.missing_frac < 1.0:
            raise DatasetError(f"missing_frac must lie in [0, 1), got {self.missing_frac}")
        if not 0.0 <= self.tuition_frac <= 1.0:
            raise DatasetError(f"tuition_frac must lie in [0, 1], got {self.tuition_frac}")


_OBSERVED_BASES = ("competition", "out_of_competition", "targeted", "benefit", "other")
_OBSERVED_WEIGHTS = (0.85, 0.05, 0.05, 0.03, 0.02)
_MISSING_BASES = ("olympiad", "targeted", "benefit", "other")
_MISSING_WEIGHTS = (0.6, 0.2, 0.1, 0.1)


def _symmetric_scores(mean: float, std: float, n: int) -> list[float] | None:
    """n scores with the exact given mean and population std, or None if any
    would leave (0, 100]."""
    m = n // 2
    if n % 2 == 0:
        a = std
        scores = [mean - a] * m + [mean + a] * m
    else:
        if std > 0.0 and m == 0:
            return None  # a single score cannot have positive spread
        a = std * math.sqrt(n / (n - 1)) if std > 0.0 else 0.0
        scores = [mean] + [mean - a] * m + [mean + a] * m
    if scores and (min(scores) <= 0.0 or max(scores) > 100.0):
        return None
    return scores


def synth(spec: SynthSpec) -> Dataset:
    """Generate a dataset matching the recipe; deterministic in the seed."""
    rng = random.Random(spec.seed)
    width = len(str(spec.n_universities))
    records: list[StudentRecord] = []
    for u in range(1, spec.n_universities + 1):
        university = f"U{u:0{width}d}"
        n_total = rng.randint(*spec.students_per_university)
        n_miss = round(n_total * spec.missing_frac)
        n_miss = min(n_miss, n_total - 2)
        n_obs = n_total - n_miss
        scores = None
        for _ in range(1000):
            mean = rng.uniform(*spec.mean_range)
            std = rng.uniform(*spec.std_range)
            scores = _symmetric_scores(mean, std, n_obs)
            if scores is not None:
                break
        if scores is None:
            raise DatasetError(
                f"could not place scores inside (0, 100] for mean range "
                f"{spec.mean_range} and std range {spec.std_range}"
            )
        uni_records = []
        forms_used = set()
        for score in scores:
            form = "tuition_based" if rng.random() < spec.tuition_frac else "state_funded"
            forms_used.add(form)
            basis = rng.choices(_OBSERVED_BASES, weights=_OBSERVED_WEIGHTS)[0]
            uni_records.append(StudentRecord(university, form, basis, score))
        for _ in range(n_miss):
            # gaps only on forms that have observed scores, so they stay fillable
            form = rng.choice(sorted(forms_used))
            basis = rng.choices(_MISSING_BASES, weights=_MISSING_WEIGHTS)[0]
            uni_records.append(StudentRecord(university, form, basis, None))
        rng.shuffle(uni_records)
        records.extend(uni_records)
    return Dataset(tuple(records), spec.group_label)
