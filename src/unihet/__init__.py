"""Interval-order analysis of how uneven a university admission system is.

Universities are summarised by score intervals; the containment-free
left-right comparison of intervals yields a strict partial order, and the
normalized Hamming distance between the observed order and a reference
("ideal") order measures how far the system sits from a clean stratification.

The names exported here are the ones the command line and the README
workflow use, plus the types their signatures expose.  Everything else is
importable from its submodule (``unihet.orders``, ``unihet.ideals``,
``unihet.imputation``, ``unihet.data``, ``unihet.report``).

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` process-wide (child
processes inherit it) unless it is already set; a program that wants a
threaded BLAS should set it first, or import numpy before ``unihet``.
"""

import os

# The package makes no BLAS call, and OpenBLAS reads this only when numpy loads:
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # so no unused worker pool starts

from .data import Dataset, DatasetError, StudentRecord, load_csv, save_csv
from .ideals import ClusteredIdeal, DesiredIdeal, GroupRow, UniformIdeal, preset
from .imputation import (
    ExclusionReport,
    MissingnessSummary,
    apply_exclusion,
    fill_missing,
    missingness_summary,
)
from .orders import (
    INTERVAL_METHODS,
    IntervalOrder,
    ScoreInterval,
    UniversityStats,
    build_interval_order,
    hamming,
    interval_of,
)
from .report import (
    ExclusionOutcome,
    ExclusionResult,
    HeterogeneityReport,
    IdealOutcome,
    IdealResult,
    IdealSpec,
    WhatIfRow,
    analyze,
    emit,
    load_report,
    plot_rows,
    whatif_exclusion,
    write_plot,
    write_whatif,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # orders
    "INTERVAL_METHODS",
    "ScoreInterval",
    "UniversityStats",
    "IntervalOrder",
    "interval_of",
    "build_interval_order",
    "hamming",
    # ideals
    "ClusteredIdeal",
    "UniformIdeal",
    "DesiredIdeal",
    "GroupRow",
    "preset",
    # records (defined in data) and imputation
    "StudentRecord",
    "ExclusionReport",
    "MissingnessSummary",
    "apply_exclusion",
    "fill_missing",
    "missingness_summary",
    # data
    "Dataset",
    "DatasetError",
    "load_csv",
    "save_csv",
    # report
    "IdealSpec",
    "IdealOutcome",
    "IdealResult",
    "ExclusionOutcome",
    "ExclusionResult",
    "HeterogeneityReport",
    "WhatIfRow",
    "analyze",
    "whatif_exclusion",
    "emit",
    "load_report",
    "write_whatif",
    "plot_rows",
    "write_plot",
]
