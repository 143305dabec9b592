"""Span tracing of the package from the outside, for the traced run.

The tracer replaces the public functions at each module boundary with
wrappers that record a span (name, start, end, parent) and a few counts.
A function is replaced under every ``unihet`` module name that holds it, so
``build_interval_order`` is traced as ``ideals`` and ``report`` call it,
whatever module they imported it from.  Spans stay in memory until the bench
reads them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# (span name, defining module, attribute, {count metric: f(result)})
TARGETS: tuple[tuple[str, str, str, dict[str, Callable[[Any], float]]], ...] = (
    ("data.load_csv", "unihet.data", "load_csv", {"data.load_csv.records": lambda r: r.n_records}),
    ("data.save_csv", "unihet.data", "save_csv", {}),
    ("data.aggregate", "unihet.data", "aggregate", {"data.aggregate.universities": len}),
    ("imputation.missingness_summary", "unihet.imputation", "missingness_summary", {}),
    ("imputation.apply_exclusion", "unihet.imputation", "apply_exclusion",
     {"imputation.excluded": lambda r: r[1].n_excluded}),
    ("imputation.fill_missing", "unihet.imputation", "fill_missing",
     {"imputation.filled": lambda r: sum(x.imputed for x in r)}),
    ("orders.build_interval_order", "unihet.orders", "build_interval_order",
     {"orders.build_interval_order.cells": lambda r: r.n * r.n}),
    ("orders.hamming", "unihet.orders", "hamming", {}),
    ("ideals.clustered.build", "unihet.ideals", "ClusteredIdeal.build", {}),
    ("ideals.uniform.build", "unihet.ideals", "UniformIdeal.build", {}),
    ("ideals.desired.build", "unihet.ideals", "DesiredIdeal.build", {}),
    ("report.real_order", "unihet.report", "real_order", {}),
    ("report.analyze", "unihet.report", "analyze", {}),
    ("report.whatif_exclusion", "unihet.report", "whatif_exclusion",
     {"report.floors_feasible": lambda r: sum(row.feasible for row in r)}),
    ("report.emit", "unihet.report", "emit", {}),
    ("report.write_whatif", "unihet.report", "write_whatif", {}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    bookkeeping: float = 0.0  # time spent counting a child's result


class Tracer:
    """Installs the wrappers, records spans and turns them into self times."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = self.spans[index]
            span.start, span.end = start, end

    def _wrap(self, name: str, fn: Callable, counts: dict) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            start = time.perf_counter()
            for metric, count in counts.items():
                self.counts[metric] = self.counts.get(metric, 0) + count(result)
            if self._stack:  # counting is the tracer's work, not the caller's
                self.spans[self._stack[-1]].bookkeeping += time.perf_counter() - start
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "unihet" or n.startswith("unihet.")]
        for name, module_name, attr, counts in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counts)
            for target in targets:
                if target.__dict__.get(attr) is original:
                    setattr(target, attr, wrapper)
                    self._restore.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        child_time = [span.bookkeeping for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, covered in zip(self.spans, child_time):
            self_time[span.name] = self_time.get(span.name, 0.0) + (span.end - span.start - covered)
            calls[span.name] = calls.get(span.name, 0) + 1
        return self_time, calls
