"""End-to-end heterogeneity analysis and serializable reports.

:func:`analyze` aggregates a dataset, builds the observed interval order and
one or more reference orders, and collects the normalized Hamming distances
together with group tables into a :class:`HeterogeneityReport`.
:func:`whatif_exclusion` sweeps exclusion floors and reports how the
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
from typing import Any, Iterable, Mapping, Sequence

from .data import FORMS, Dataset, aggregate
from .ideals import ClusteredIdeal, DesiredIdeal, GroupRow, UniformIdeal
from .orders import (
    INTERVAL_METHODS,
    IntervalOrder,
    UniversityStats,
    build_interval_order,
    hamming,
    interval_of,
)

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
]

IdealSpec = ClusteredIdeal | UniformIdeal | DesiredIdeal


def real_order(stats_list: Sequence[UniversityStats], interval_method: str = "mean_std") -> IntervalOrder:
    """Observed interval order of a university list.

    Each university's interval comes from :func:`~unihet.orders.interval_of`.
    """
    return build_interval_order([(s.label, interval_of(s, interval_method)) for s in stats_list])


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


@dataclass(frozen=True)
class ExclusionResult:
    floor: float
    spec: str
    by_form: dict[str, ExclusionOutcome]


@dataclass(frozen=True)
class HeterogeneityReport:
    """Full outcome of an analysis run.

    Slices are keyed ``"all"`` for a combined run or by study form when the
    analysis was split.  ``n_universities`` counts the universities in each
    slice; every ideal's group table partitions exactly that count.
    """

    group_label: str
    interval_method: str
    split_by_form: bool
    n_universities: dict[str, int]
    per_ideal: tuple[IdealResult, ...]
    exclusion: ExclusionResult | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_ideal", tuple(self.per_ideal))
        if self.interval_method not in INTERVAL_METHODS:
            raise ValueError(f"unknown interval method {self.interval_method!r}")
        for key, n in self.n_universities.items():
            if n < 2:
                raise ValueError(f"slice {key!r} has {n} universities; at least 2 are needed")
        if not self.per_ideal:
            raise ValueError("a report needs at least one reference order")
        for result in self.per_ideal:
            if set(result.by_form) != set(self.n_universities):
                raise ValueError(
                    f"ideal {result.spec!r} covers slices {sorted(result.by_form)}, "
                    f"expected {sorted(self.n_universities)}"
                )
            for key, outcome in result.by_form.items():
                total = sum(row.count for row in outcome.group_table)
                if total != self.n_universities[key]:
                    raise ValueError(
                        f"{result.spec!r}/{key}: group table counts {total} universities, "
                        f"slice has {self.n_universities[key]}"
                    )


def _slices(
    dataset: Dataset, split_by_form: bool, drop_missing: bool
) -> dict[str, list[UniversityStats]]:
    if not split_by_form:
        return {"all": aggregate(dataset, drop_missing=drop_missing)}
    stats = aggregate(dataset, split_by_form=True, drop_missing=drop_missing)
    out: dict[str, list[UniversityStats]] = {}
    for form in FORMS:
        sub = [s for s in stats if s.form == form]
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


def _apply_floor(
    stats: Sequence[UniversityStats], floor: float, ideal: IdealSpec, interval_method: str
) -> tuple[int, float | None]:
    """Drop the universities whose mean is below ``floor`` and compare again.

    Returns how many universities were dropped and the distance between the
    observed order of the rest and ``ideal`` built over them, or None for
    the distance when fewer than 2 universities are left.
    """
    if not math.isfinite(floor):
        raise ValueError(f"floor must be finite, got {floor}")
    kept = [s for s in stats if s.mean >= floor]
    if len(kept) < 2:
        return len(stats) - len(kept), None
    ideal_kept, _ = ideal.build(kept)
    return len(stats) - len(kept), hamming(real_order(kept, interval_method), ideal_kept)


def analyze(
    dataset: Dataset,
    ideal_specs: Sequence[IdealSpec],
    interval_method: str = "mean_std",
    split_by_form: bool = False,
    floor: float | None = None,
    drop_missing: bool = False,
) -> HeterogeneityReport:
    """Compare a dataset's observed order against reference orders.

    When ``floor`` is given, the report also shows the distance after
    dropping universities whose mean is below it; the comparison target is
    the first tier-scheme ideal in ``ideal_specs``.
    """
    if not ideal_specs:
        raise ValueError("at least one reference order is required")
    slices = _slices(dataset, split_by_form, drop_missing)
    reals = {key: real_order(stats, interval_method) for key, stats in slices.items()}
    per_ideal = []
    for spec in ideal_specs:
        by_form: dict[str, IdealOutcome] = {}
        for key, stats in slices.items():
            ideal, rows = spec.build(stats)
            by_form[key] = IdealOutcome(hamming(reals[key], ideal), rows)
        per_ideal.append(IdealResult(spec.describe(), by_form))
    exclusion = None
    if floor is not None:
        target = next((s for s in ideal_specs if isinstance(s, DesiredIdeal)), None)
        if target is None:
            raise ValueError("exclusion needs a tier-scheme ideal among ideal_specs")
        by_form_ex: dict[str, ExclusionOutcome] = {}
        for key, stats in slices.items():
            n_removed, h = _apply_floor(stats, floor, target, interval_method)
            n_kept = len(stats) - n_removed
            if h is None:
                raise ValueError(
                    f"floor {floor} leaves {n_kept} universities in slice {key!r}; "
                    "at least 2 are needed"
                )
            by_form_ex[key] = ExclusionOutcome(n_removed, n_kept, h)
        exclusion = ExclusionResult(floor, target.describe(), by_form_ex)
    return HeterogeneityReport(
        group_label=dataset.group_label,
        interval_method=interval_method,
        split_by_form=split_by_form,
        n_universities={key: len(stats) for key, stats in slices.items()},
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
    """Sweep exclusion floors and recompute the distance to a tier scheme.

    Rows come back ordered by floor.  A floor that leaves fewer than two
    universities is reported infeasible rather than raising, so a sweep can
    cross the top of the score range safely.
    """
    if not floors:
        raise ValueError("at least one floor is required")
    stats = aggregate(dataset, drop_missing=drop_missing)
    rows = []
    for floor in sorted(floors):
        n_removed, h = _apply_floor(stats, floor, spec, interval_method)
        rows.append(WhatIfRow(floor, n_removed, h, h is not None))
    return tuple(rows)


def _write(
    path: str, format: str, payload: Any, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write ``payload`` as indented JSON, or ``header`` and ``rows`` as CSV."""
    if format == "json":
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        raise ValueError(f"unknown format {format!r}; expected 'json' or 'csv'")


def _decode(kind: Any, data: Any, path: str) -> Any:
    """Rebuild a value of type ``kind`` from the JSON form of :func:`asdict`."""
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        values = {}
        for f in dataclasses.fields(kind):
            if f.name in data:
                values[f.name] = _decode(hints[f.name], data[f.name], path)
            elif f.default is dataclasses.MISSING:
                raise ValueError(f"{path}: report is missing the {f.name!r} field")
        return kind(**values)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:  # tuple[X, ...]
        return tuple(_decode(args[0], x, path) for x in data)
    if origin is dict:
        return {k: _decode(args[1], v, path) for k, v in data.items()}
    if origin is types.UnionType and data is not None:  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, data, path)
    return data


def emit(report: HeterogeneityReport, format: str, path: str) -> None:
    """Write a report as JSON (full detail) or CSV (flat distance rows).

    The CSV has one row per (section, spec, form): columns ``section, spec,
    form, n_universities, hamming, floor, n_removed, n_kept``, where the
    exclusion columns are empty on ideal rows.
    """
    n = report.n_universities
    rows = [
        ["ideal", result.spec, key, n[key], repr(outcome.hamming), "", "", ""]
        for result in report.per_ideal
        for key, outcome in result.by_form.items()
    ]
    ex = report.exclusion
    if ex is not None:
        rows += [
            ["exclusion", ex.spec, key, n[key], repr(outcome.hamming_after), repr(ex.floor),
             outcome.n_removed, outcome.n_kept]
            for key, outcome in ex.by_form.items()
        ]
    header = ("section", "spec", "form", "n_universities", "hamming", "floor", "n_removed", "n_kept")
    _write(path, format, asdict(report), header, rows)


def load_report(path: str) -> HeterogeneityReport:
    """Read back a report written by :func:`emit` in JSON format.

    A missing field raises ``ValueError`` naming the file and the field.
    """
    with open(path) as fh:
        return _decode(HeterogeneityReport, json.load(fh), path)


def write_whatif(
    rows: Sequence[WhatIfRow], spec_desc: str, format: str, path: str
) -> None:
    """Write a floor sweep as JSON or CSV."""
    payload = {"spec": spec_desc, "rows": [asdict(r) for r in rows]}
    csv_rows = (
        [repr(r.floor), r.n_removed, "" if r.hamming is None else repr(r.hamming), int(r.feasible)]
        for r in rows
    )
    _write(path, format, payload, ("floor", "n_removed", "hamming", "feasible"), csv_rows)


def plot_rows(
    dataset: Dataset,
    interval_method: str = "mean_std",
    split_by_form: bool = False,
    drop_missing: bool = False,
) -> list[dict]:
    """Per-university rows ready for plotting score intervals.

    Each row carries the label, form, mean, std, count and interval bounds
    under the chosen method.
    """
    rows = []
    for s in aggregate(dataset, split_by_form=split_by_form, drop_missing=drop_missing):
        iv = interval_of(s, interval_method)
        rows.append(
            {
                "university_id": s.label,
                "form": s.form or "all",
                "mean": s.mean,
                "std": s.std,
                "count": s.count,
                "interval_lo": iv.lo,
                "interval_hi": iv.hi,
            }
        )
    return rows


def write_plot(rows: Sequence[Mapping], format: str, path: str) -> None:
    """Write plotting rows as JSON or CSV."""
    csv_rows = (
        [r["university_id"], r["form"], repr(r["mean"]), repr(r["std"]),
         r["count"], repr(r["interval_lo"]), repr(r["interval_hi"])]
        for r in rows
    )
    header = ("university_id", "form", "mean", "std", "count", "interval_lo", "interval_hi")
    _write(path, format, list(rows), header, csv_rows)
