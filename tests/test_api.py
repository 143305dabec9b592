"""The public surface: ``unihet.__all__``, each submodule's ``__all__`` and the
names the benchmark traces.

``perfbench/spans.py`` wraps package functions by module and attribute name
for ``perfbench/run.py --trace 1``, and ``perfbench/selftest.py`` uses
``unihet.orders.exclude_below`` as a name no CLI run calls.  A rename that
would break either fails here first.
"""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import unihet

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

PUBLIC = [
    "__version__",
    "INTERVAL_METHODS",
    "UniversityStats",
    "IntervalOrder",
    "build_interval_order",
    "hamming",
    "ClusteredIdeal",
    "UniformIdeal",
    "DesiredIdeal",
    "GroupRow",
    "preset",
    "StudentRecord",
    "ExclusionReport",
    "MissingnessSummary",
    "apply_exclusion",
    "fill_missing",
    "missingness_summary",
    "Dataset",
    "DatasetError",
    "load_csv",
    "save_csv",
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


# each submodule's __all__: a name only tests use belongs in tests/helpers.py
SUBMODULE_PUBLIC = {
    "orders": [
        "UniversityStats",
        "IntervalOrder",
        "INTERVAL_METHODS",
        "build_interval_order",
        "hamming",
    ],
    "ideals": [
        "GroupRow",
        "ClusteredIdeal",
        "UniformIdeal",
        "DesiredIdeal",
        "kmeans_1d",
        "preset",
        "preset_names",
        "parse_ideal",
    ],
    "imputation": [
        "ExclusionReport",
        "MissingnessSummary",
        "apply_exclusion",
        "fill_missing",
        "missingness_summary",
    ],
    "data": [
        "FORMS",
        "BASES",
        "StudentRecord",
        "Dataset",
        "DatasetError",
        "load_csv",
        "save_csv",
        "aggregate",
    ],
    "report": [
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
    ],
    "cli": ["main", "build_parser"],
}


def _traced_targets():
    return runpy.run_path(str(SPANS), run_name="perfbench_spans")["TARGETS"]


def test_public_names_are_pinned():
    assert unihet.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(unihet, name), name


def test_public_names_resolve_to_their_submodule_objects():
    # each name loads on first access, from the submodule that exports it
    for name in PUBLIC[1:]:
        homes = [m for m, names in SUBMODULE_PUBLIC.items() if name in names]
        assert len(homes) == 1, (name, homes)
        assert getattr(unihet, name) is getattr(importlib.import_module(f"unihet.{homes[0]}"), name)
    assert set(PUBLIC) <= set(dir(unihet))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        unihet.nope  # noqa: B018
    with pytest.raises(ImportError):
        from unihet import parse_ideal  # noqa: F401  # its home is unihet.ideals


def test_import_loads_no_submodule():
    src = str(Path(unihet.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, unihet; print(sorted(m for m in sys.modules if m.startswith(('numpy', "
         "'unihet'))))"],
        capture_output=True, encoding="utf-8", env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['unihet']\n"


@pytest.mark.parametrize("module", sorted(SUBMODULE_PUBLIC))
def test_submodule_names_are_pinned(module):
    owner = importlib.import_module(f"unihet.{module}")
    assert owner.__all__ == SUBMODULE_PUBLIC[module]
    for name in SUBMODULE_PUBLIC[module]:
        assert hasattr(owner, name), name


@pytest.mark.parametrize("target", _traced_targets(), ids=lambda t: t[0])
def test_traced_name_resolves(target):
    _, module_name, attr, _ = target
    owner = importlib.import_module(module_name)
    for part in attr.split("."):  # "ClusteredIdeal.build" is a class method
        owner = getattr(owner, part)
    assert callable(owner)


def test_never_called_span_target_exists():
    from unihet import orders

    assert callable(orders.exclude_below)
