"""End-to-end heterogeneity analysis and serializable reports.

:func:`analyze` aggregates a dataset, builds the observed interval order and
one or more reference orders, and collects the normalized Hamming distances
together with group tables into a :class:`HeterogeneityReport`.
:func:`whatif_exclusion` tries exclusion floors and reports how the
distance to a tier scheme reacts when weak universities are removed.  Both
apply a floor through the same helper.

Reports are plain dataclasses: they are written with
:func:`dataclasses.asdict`, read back by one decoder driven by their type
hints, and every output file goes through one JSON-or-CSV writer.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import types
import typing
import warnings
from dataclasses import asdict, dataclass
from itertools import compress
from typing import Any, Iterable, Mapping, Sequence

from .data import FORMS, Dataset, aggregate
from .ideals import ClusteredIdeal, DesiredIdeal, GroupRow, UniformIdeal
from .orders import INTERVAL_METHODS, IntervalOrder, UniversityStats, build_interval_order, hamming

__all__ = [
    "IdealOutcome",
    "IdealResult",
    "ExclusionOutcome",
    "ExclusionResult",
    "HeterogeneityReport",
    "WhatIfRow",
    "IdealSpec",
    "analyze",
    "whatif_exclusion",
    "emit",
    "load_report",
    "write_whatif",
    "plot_rows",
    "write_plot",
    "real_order",
    "check_request",
]

IdealSpec = ClusteredIdeal | UniformIdeal | DesiredIdeal
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def real_order(stats: UniversityStats, interval_method: str = "mean_std") -> IntervalOrder:
    """Observed interval order of a statistics table, from
    :func:`~unihet.orders.build_interval_order`."""
    return build_interval_order(stats, interval_method)


@dataclass(frozen=True)
class IdealOutcome:
    """Distance to one reference order within one slice, with its group table."""

    hamming: float
    group_table: tuple[GroupRow, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.hamming <= 1.0:
            raise ValueError(f"hamming must lie in [0, 1], got {self.hamming}")


@dataclass(frozen=True)
class IdealResult:
    """One reference order across all analyzed slices."""

    spec: str
    by_form: dict[str, IdealOutcome]


@dataclass(frozen=True)
class ExclusionOutcome:
    """Effect of one exclusion floor within one slice."""

    n_removed: int
    n_kept: int
    hamming_after: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hamming_after <= 1.0:
            raise ValueError(f"hamming_after must lie in [0, 1], got {self.hamming_after}")


@dataclass(frozen=True)
class ExclusionResult:
    floor: float
    spec: str
    by_form: dict[str, ExclusionOutcome]


@dataclass(frozen=True)
class HeterogeneityReport:
    """Full outcome of an analysis run.

    Slices are keyed ``"all"`` alone for a combined run, or by one or more
    study forms of ``FORMS`` when the analysis was split.  ``n_universities``
    counts the universities in each slice; every ideal's group table
    partitions exactly that count, and the exclusion section, if any, has a
    finite floor and splits each slice into the removed universities and at
    least 2 kept ones.
    """

    group_label: str
    interval_method: str
    split_by_form: bool
    n_universities: dict[str, int]
    per_ideal: tuple[IdealResult, ...]
    exclusion: ExclusionResult | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_ideal", tuple(self.per_ideal))
        if not self.group_label:
            raise ValueError("group label must be non-empty")
        if self.interval_method not in INTERVAL_METHODS:
            raise ValueError(f"unknown interval method {self.interval_method!r}")
        allowed = FORMS if self.split_by_form else ("all",)
        if not self.n_universities or not set(self.n_universities) <= set(allowed):
            how = "split" if self.split_by_form else "not split"
            raise ValueError(f"a report {how} by form needs one or more slices of {list(allowed)}, "
                             f"got {list(self.n_universities)}")
        _check_slice_sizes(self.n_universities)
        if not self.per_ideal:
            raise ValueError("a report needs at least one reference order")
        ex = self.exclusion
        sections = [(f"ideal {r.spec!r}", r.by_form) for r in self.per_ideal]
        if ex is not None:
            sections.append((f"exclusion {ex.spec!r}", ex.by_form))
        for name, by_form in sections:
            if set(by_form) != set(self.n_universities):
                expected = sorted(self.n_universities)
                raise ValueError(f"{name} covers slices {sorted(by_form)}, expected {expected}")
        for result in self.per_ideal:
            for key, outcome in result.by_form.items():
                total = sum(row.count for row in outcome.group_table)
                if total != self.n_universities[key]:
                    raise ValueError(
                        f"{result.spec!r}/{key}: group table counts {total} universities, "
                        f"slice has {self.n_universities[key]}"
                    )
        if ex is None:
            return
        if not math.isfinite(ex.floor):
            raise ValueError(f"floor must be finite, got {ex.floor}")
        for key, outcome in ex.by_form.items():
            n = self.n_universities[key]
            if outcome.n_removed < 0 or outcome.n_removed + outcome.n_kept != n:
                raise ValueError(f"exclusion/{key}: {outcome.n_removed} removed and "
                                 f"{outcome.n_kept} kept, slice has {n}")
            if outcome.n_kept < 2:
                raise ValueError(f"exclusion/{key}: floor {ex.floor} keeps {outcome.n_kept} "
                                 "universities; at least 2 are needed")


def _check_slice_sizes(n_universities: dict[str, int]) -> None:
    for key, n in n_universities.items():
        if n < 2:
            raise ValueError(f"slice {key!r} has {n} universities; at least 2 are needed")


def _slices(
    dataset: Dataset, split_by_form: bool, drop_missing: bool
) -> dict[str, UniversityStats]:
    if not split_by_form:
        return {"all": aggregate(dataset, drop_missing=drop_missing)}
    stats = aggregate(dataset, split_by_form=True, drop_missing=drop_missing)
    out: dict[str, UniversityStats] = {}
    for form in FORMS:
        sub = stats.take([f == form for f in stats.forms])
        if len(sub) < 2:
            warnings.warn(
                f"form {form!r} has {len(sub)} universities with scores; slice skipped",
                stacklevel=3,
            )
            continue
        out[form] = sub
    if not out:
        raise ValueError("no form slice has at least 2 universities")
    return out


def check_request(
    ideal_specs: Sequence[IdealSpec], floors: Sequence[float] | None = None
) -> DesiredIdeal | None:
    """Refuse a request that no data could make valid, before any data is read.

    ``floors`` are exclusion floors, compared against the first tier scheme
    in ``ideal_specs``; that scheme is returned, or None without floors.  A
    floor list must be non-empty and finite.
    """
    if not ideal_specs:
        raise ValueError("at least one reference order is required")
    if floors is None:
        return None
    target = next((s for s in ideal_specs if isinstance(s, DesiredIdeal)), None)
    if target is None:
        raise ValueError("exclusion floors need a tier-scheme ideal (desired:...)")
    if not floors:
        raise ValueError("at least one floor is required")
    for floor in floors:
        if not math.isfinite(floor):
            raise ValueError(f"floor must be finite, got {floor}")
    return target


def _apply_floor(
    stats: UniversityStats, floor: float, real: IntervalOrder, ideal: IntervalOrder
) -> tuple[int, float | None]:
    """Drop the universities whose mean is below ``floor`` and compare again.

    ``real`` and ``ideal`` are the observed and tier-scheme orders over
    ``stats``.  Both are restricted to the kept universities, which is exact:
    an interval or a tier depends on one university's statistics alone.
    Returns how many universities were dropped and the distance between the
    restrictions, or None for the distance when fewer than 2 are left.
    The callers have checked that ``floor`` is finite.
    """
    keep = stats.mean >= floor
    n_removed = len(stats) - int(keep.sum())
    if len(stats) - n_removed < 2:
        return n_removed, None
    kept = [IntervalOrder(compress(o.labels, keep), o.lo[keep], o.hi[keep]) for o in (real, ideal)]
    return n_removed, hamming(*kept)


def analyze(
    dataset: Dataset,
    ideal_specs: Sequence[IdealSpec],
    interval_method: str = "mean_std",
    split_by_form: bool = False,
    floor: float | None = None,
    drop_missing: bool = False,
    group_label: str = "unlabeled",
) -> HeterogeneityReport:
    """Compare a dataset's observed order against reference orders.

    When ``floor`` is given, the report also shows the distance after
    dropping universities whose mean is below it; the comparison target is
    the first tier-scheme ideal in ``ideal_specs``.  ``group_label`` names
    the cohort (a study field, a year, a synthetic batch) in the report.
    """
    target = check_request(ideal_specs, None if floor is None else [floor])
    slices = _slices(dataset, split_by_form, drop_missing)
    n_universities = {key: len(stats) for key, stats in slices.items()}
    _check_slice_sizes(n_universities)  # before any order is built
    reals = {key: real_order(stats, interval_method) for key, stats in slices.items()}
    tiers: dict[str, IntervalOrder] = {}  # the target's order of each slice
    per_ideal = []
    for spec in ideal_specs:
        by_form: dict[str, IdealOutcome] = {}
        for key, stats in slices.items():
            ideal, rows = spec.build(stats)
            by_form[key] = IdealOutcome(hamming(reals[key], ideal), rows)
            if spec is target:
                tiers[key] = ideal
        per_ideal.append(IdealResult(spec.describe(), by_form))
    exclusion = None
    if target is not None:
        by_form_ex: dict[str, ExclusionOutcome] = {}
        for key, stats in slices.items():
            n_removed, h = _apply_floor(stats, floor, reals[key], tiers[key])
            n_kept = len(stats) - n_removed
            if h is None:
                raise ValueError(
                    f"floor {floor} leaves {n_kept} universities in slice {key!r}; "
                    "at least 2 are needed"
                )
            by_form_ex[key] = ExclusionOutcome(n_removed, n_kept, h)
        exclusion = ExclusionResult(floor, target.describe(), by_form_ex)
    return HeterogeneityReport(
        group_label=group_label,
        interval_method=interval_method,
        split_by_form=split_by_form,
        n_universities=n_universities,
        per_ideal=tuple(per_ideal),
        exclusion=exclusion,
    )


@dataclass(frozen=True)
class WhatIfRow:
    """Outcome of one exclusion floor: how many universities go, distance after.

    ``hamming`` is None when the floor is infeasible (fewer than 2
    universities survive).
    """

    floor: float
    n_removed: int
    hamming: float | None
    feasible: bool


def whatif_exclusion(
    dataset: Dataset,
    spec: DesiredIdeal,
    floors: Sequence[float],
    interval_method: str = "mean_std",
    drop_missing: bool = False,
) -> tuple[WhatIfRow, ...]:
    """Try each exclusion floor and recompute the distance to a tier scheme.

    Rows come back ordered by floor.  A floor that leaves fewer than two
    universities is reported infeasible rather than raising, so the floors can
    cross the top of the score range safely.
    """
    check_request([spec], floors)
    stats = aggregate(dataset, drop_missing=drop_missing)
    real, (ideal, _) = real_order(stats, interval_method), spec.build(stats)
    rows = []
    for floor in sorted(floors):
        n_removed, h = _apply_floor(stats, floor, real, ideal)
        rows.append(WhatIfRow(floor, n_removed, h, h is not None))
    return tuple(rows)


def _write(
    path: str, format: str, payload: Any, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write ``payload`` as indented JSON, or ``header`` and ``rows`` as CSV."""
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        raise ValueError(f"unknown format {format!r}; expected 'json' or 'csv'")


def _decode(kind: Any, data: Any) -> Any:
    """Rebuild a value of type ``kind`` from the JSON form of :func:`asdict`.

    A missing, mistyped or unknown field raises ``ValueError`` starting with ``report``.
    """
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if data is None else _decode(inner, data)
    expected = dict if origin is dict or dataclasses.is_dataclass(kind) else origin or kind
    expected = list if expected is tuple else expected  # JSON holds a tuple as an array
    if type(data) is not expected and not (expected is float and type(data) is int):
        got, want = _JSON_NAMES[type(data)], _JSON_NAMES[expected]
        raise ValueError(f"report has {got} where {want} belongs")
    if origin is tuple:  # tuple[X, ...]
        return tuple(_decode(args[0], x) for x in data)
    if origin is dict:
        return {k: _decode(args[1], v) for k, v in data.items()}
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        for name in data:
            if name not in hints:
                raise ValueError(f"report has an unknown field {name!r}")
        values = {}
        for f in dataclasses.fields(kind):
            if f.name in data:
                values[f.name] = _decode(hints[f.name], data[f.name])
            elif f.default is dataclasses.MISSING:
                raise ValueError(f"report is missing the {f.name!r} field")
        return kind(**values)
    return data


def emit(report: HeterogeneityReport, format: str, path: str) -> None:
    """Write a report as JSON (full detail) or CSV (flat distance rows).

    The CSV has one row per (section, spec, form): columns ``section, spec,
    form, n_universities, hamming, floor, n_removed, n_kept``, where the
    exclusion columns are empty on ideal rows.
    """
    n = report.n_universities
    rows = [
        ["ideal", result.spec, key, n[key], outcome.hamming, "", "", ""]
        for result in report.per_ideal
        for key, outcome in result.by_form.items()
    ]
    ex = report.exclusion
    if ex is not None:
        rows += [
            ["exclusion", ex.spec, key, n[key], outcome.hamming_after, ex.floor,
             outcome.n_removed, outcome.n_kept]
            for key, outcome in ex.by_form.items()
        ]
    header = ("section", "spec", "form", "n_universities", "hamming", "floor", "n_removed", "n_kept")
    _write(path, format, asdict(report), header, rows)


def load_report(path: str) -> HeterogeneityReport:
    """Read back a report written by :func:`emit` in JSON format.

    Bytes that are not UTF-8, malformed JSON, a missing, mistyped or unknown field and
    a value that a report's own checks refuse raise ``ValueError`` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _decode(HeterogeneityReport, json.load(fh))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise ValueError(f"{path}: {exc}") from None


def write_whatif(
    rows: Sequence[WhatIfRow], spec_desc: str, format: str, path: str
) -> None:
    """Write what-if rows as JSON or CSV."""
    payload = {"spec": spec_desc, "rows": [asdict(r) for r in rows]}
    csv_rows = ([r.floor, r.n_removed, r.hamming, int(r.feasible)] for r in rows)
    _write(path, format, payload, ("floor", "n_removed", "hamming", "feasible"), csv_rows)


def plot_rows(
    dataset: Dataset,
    interval_method: str = "mean_std",
    split_by_form: bool = False,
    drop_missing: bool = False,
) -> list[dict]:
    """Per-university rows ready for plotting score intervals.

    Each row carries the label, form (``"all"`` unless split), mean, std,
    count and the interval bounds of the order that
    :func:`~unihet.orders.build_interval_order` builds under the chosen
    method.  The values are Python numbers, which both writers take.
    """
    stats = aggregate(dataset, split_by_form=split_by_form, drop_missing=drop_missing)
    order = build_interval_order(stats, interval_method)
    columns = (stats.labels, stats.forms or ("all",) * len(stats), stats.mean.tolist(),
               stats.std.tolist(), stats.count.tolist(), order.lo.tolist(), order.hi.tolist())
    return [
        {"university_id": label, "form": form, "mean": mean, "std": std, "count": count,
         "interval_lo": lo, "interval_hi": hi}
        for label, form, mean, std, count, lo, hi in zip(*columns)
    ]


def write_plot(rows: Sequence[Mapping], format: str, path: str) -> None:
    """Write plotting rows as JSON or CSV."""
    header = ("university_id", "form", "mean", "std", "count", "interval_lo", "interval_hi")
    _write(path, format, list(rows), header, ([r[name] for name in header] for r in rows))
