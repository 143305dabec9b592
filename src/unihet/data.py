"""Loading, saving, aggregating and generating student-level score datasets.

The on-disk format is a CSV with header ``university_id,form,basis,score``
and optionally a fifth ``imputed`` column (0/1).  An empty or zero score
cell means the score is unknown.  Unknown admission bases are folded into
``other``; an unknown study form is an error.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .imputation import BASES, FORMS, StudentRecord
from .orders import UniversityStats

__all__ = [
    "Dataset",
    "GroupSummary",
    "SynthSpec",
    "DatasetError",
    "load_csv",
    "save_csv",
    "aggregate",
    "summarize",
    "synth",
    "write_stats_csv",
]

CSV_HEADER = ("university_id", "form", "basis", "score")
CSV_HEADER_IMPUTED = CSV_HEADER + ("imputed",)


class DatasetError(ValueError):
    """Malformed dataset file or infeasible generation request."""


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of student records with a group label.

    The label names the cohort (a study field, a year, a synthetic batch)
    and travels into reports.
    """

    records: tuple[StudentRecord, ...]
    group_label: str = "unlabeled"

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if not self.group_label:
            raise ValueError("group label must be non-empty")

    @property
    def n_records(self) -> int:
        return len(self.records)

    def universities(self) -> tuple[str, ...]:
        """University identifiers in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.university, None)
        return tuple(seen)

    def replace_records(self, records: Iterable[StudentRecord]) -> "Dataset":
        return Dataset(tuple(records), self.group_label)


def load_csv(path: str, group_label: str | None = None) -> Dataset:
    """Read a student-level CSV in UTF-8.

    The header must be ``university_id,form,basis,score`` with an optional
    trailing ``imputed`` column.  Score cells that are empty or 0 load as
    missing.  Any row problem, undecodable bytes included, is reported with
    its line number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            records = _read_records(reader, path)
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DatasetError(
                f"{path}:{_first_undecodable_line(path)}: "
                f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
            ) from None
    return Dataset(tuple(records), group_label or "unlabeled")


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


def save_csv(dataset: Dataset, path: str, include_imputed: bool | None = None) -> None:
    """Write a dataset back to CSV.

    ``include_imputed`` controls the fifth column; by default it is written
    exactly when some record carries the flag, so a load/save cycle keeps
    the file shape.
    """
    if include_imputed is None:
        include_imputed = any(r.imputed for r in dataset.records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER_IMPUTED if include_imputed else CSV_HEADER)
        for r in dataset.records:
            row = [r.university, r.form, r.basis, "" if r.score is None else repr(r.score)]
            if include_imputed:
                row.append("1" if r.imputed else "0")
            writer.writerow(row)


def aggregate(
    dataset: Dataset, split_by_form: bool = False, drop_missing: bool = False
) -> list[UniversityStats]:
    """Collapse student records to per-university score statistics.

    With ``split_by_form`` each (university, form) combination becomes its
    own entry, labelled ``<university>/<form>``; combinations without any
    student are skipped with a warning.  Records with missing scores are an
    error unless ``drop_missing`` asks to ignore them.
    """
    # one pass: each university's observed scores per slice (per form, or
    # one slice keyed None), universities in first-appearance order
    slice_keys = FORMS if split_by_form else (None,)
    by_university: dict[str, dict[str | None, list[float]]] = {}
    n_missing = 0
    for r in dataset.records:
        slices = by_university.get(r.university)
        if slices is None:
            slices = by_university[r.university] = {key: [] for key in slice_keys}
        if r.score is None:
            n_missing += 1
        else:
            slices[r.form if split_by_form else None].append(r.score)
    if n_missing and not drop_missing:
        raise ValueError(
            f"{n_missing} records have missing scores; fill them first or pass drop_missing=True"
        )
    out: list[UniversityStats] = []
    skipped: list[str] = []
    for university, slices in by_university.items():
        for form, scores in slices.items():
            label = university if form is None else f"{university}/{form}"
            if scores:
                out.append(UniversityStats.from_scores(label, scores, form=form))
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
class GroupSummary:
    """Envelope statistics of a set of universities.

    Ranges are (lowest, highest) across universities.  ``median_range`` is
    None when raw scores are not available.
    """

    n_universities: int
    n_students: int
    mean_range: tuple[float, float]
    std_range: tuple[float, float]
    median_range: tuple[float, float] | None


def summarize(stats_list: Sequence[UniversityStats]) -> GroupSummary:
    """Envelope summary over per-university statistics."""
    if not stats_list:
        raise ValueError("cannot summarize an empty university list")
    means = [s.mean for s in stats_list]
    stds = [s.std for s in stats_list]
    median_range = None
    if all(s.scores is not None for s in stats_list):
        medians = [statistics.median(s.scores) for s in stats_list]
        median_range = (min(medians), max(medians))
    return GroupSummary(
        n_universities=len(stats_list),
        n_students=sum(s.count for s in stats_list),
        mean_range=(min(means), max(means)),
        std_range=(min(stds), max(stds)),
        median_range=median_range,
    )


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


def write_stats_csv(
    stats_list: Sequence[UniversityStats], path: str, interval_method: str = "mean_std"
) -> None:
    """Write per-university statistics with their score intervals.

    Columns: ``university_id,form,mean,std,count,interval_lo,interval_hi``.
    The interval comes from ``mean_std`` (mean +- std) or ``min_max`` (range
    of raw scores; requires the stats to carry them).
    """
    from .orders import interval_mean_std, interval_min_max

    if interval_method not in ("mean_std", "min_max"):
        raise ValueError(f"unknown interval method {interval_method!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["university_id", "form", "mean", "std", "count", "interval_lo", "interval_hi"]
        )
        for s in stats_list:
            if interval_method == "mean_std":
                iv = interval_mean_std(s)
            else:
                if s.scores is None:
                    raise ValueError(f"{s.label}: min/max interval needs raw scores")
                iv = interval_min_max(s.scores)
            writer.writerow(
                [s.label, s.form or "all", repr(s.mean), repr(s.std), s.count, repr(iv.lo), repr(iv.hi)]
            )
