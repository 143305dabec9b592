"""Interval-order analysis of how uneven a university admission system is.

Universities are summarised by score intervals; the containment-free
left-right comparison of intervals yields a strict partial order, and the
normalized Hamming distance between the observed order and a reference
("ideal") order measures how far the system sits from a clean stratification.

The names exported here are the ones the command line and the README
workflow use, plus the types their signatures expose.  Everything else is
importable from its submodule (``unihet.orders``, ``unihet.ideals``,
``unihet.imputation``, ``unihet.data``, ``unihet.report``).  Each exported
name loads its submodule on first access, so ``import unihet`` loads no
submodule and no numpy, and the command line loads numpy and the modules a
subcommand runs only when it runs one.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` process-wide (child
processes inherit it) unless it is already set; a program that wants a
threaded BLAS should set it first, or import numpy before ``unihet``.
"""

import importlib
import os

# The package's one BLAS-eligible call is a small matrix-vector product in the CSV
# loader, and OpenBLAS reads this only when numpy loads:
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # so no worker pool starts for it

__version__ = "0.1.0"

# defined here rather than in ``orders`` so that the CLI's argument parser
# needs no numpy; ``unihet.orders`` re-exports it
INTERVAL_METHODS = ("mean_std", "min_max")

# each exported name -> the submodule that defines it, loaded on first access
_SOURCES = {
    name: module
    for module, names in (
        ("orders", ("UniversityStats", "IntervalOrder", "build_interval_order", "hamming")),
        ("ideals", ("ClusteredIdeal", "UniformIdeal", "DesiredIdeal", "GroupRow", "preset")),
        ("data", ("StudentRecord",)),  # its own entry, so that __all__ keeps its order
        ("imputation", ("ExclusionReport", "MissingnessSummary", "apply_exclusion",
                        "fill_missing", "missingness_summary")),
        ("data", ("Dataset", "DatasetError", "load_csv", "save_csv")),
        ("report", ("IdealSpec", "IdealOutcome", "IdealResult", "ExclusionOutcome",
                    "ExclusionResult", "HeterogeneityReport", "WhatIfRow", "analyze",
                    "whatif_exclusion", "emit", "load_report", "write_whatif", "plot_rows",
                    "write_plot")),
    )
    for name in names
}


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = ["__version__", "INTERVAL_METHODS", *_SOURCES]
