"""Command-line front end.

Four subcommands cover the pipeline: ``impute`` repairs score gaps,
``analyze`` compares the observed order against reference orders,
``whatif`` tries exclusion floors, and ``plotdata`` dumps per-university
interval rows for external plotting.  Validation problems exit with status
2; results land in ``--out``, defaulting to a file in the directory named
by ``UNIHET_OUT_DIR`` (or the working directory when unset).

Each subcommand imports numpy and the modules it runs when it runs, so
``--help`` and a usage error load neither, and ``impute`` loads no
reporting code.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Sequence

from . import INTERVAL_METHODS

__all__ = ["main", "build_parser"]


def _default_out(filename: str) -> str:
    return os.path.join(os.environ.get("UNIHET_OUT_DIR", "."), filename)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="student-level CSV to read")
    p.add_argument("--out", help="output path (default: per-subcommand file name)")


def _add_analysis_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--interval-method",
        choices=INTERVAL_METHODS,
        default="mean_std",
        help="how a university's score interval is built",
    )
    p.add_argument(
        "--drop-missing",
        action="store_true",
        help="ignore records with missing scores instead of failing",
    )
    p.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unihet",
        description="Interval-order heterogeneity analysis of admission scores",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impute", help="exclude unreliable universities and fill score gaps")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the fill draws")
    p.add_argument(
        "--min-students", type=int, default=15,
        help="exclude universities with fewer records than this",
    )
    p.add_argument(
        "--max-missing-frac", type=float, default=0.25,
        help="exclude universities whose missing share reaches this fraction",
    )
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser("analyze", help="compare the observed order with reference orders")
    _add_common(p)
    _add_analysis_common(p)
    p.add_argument("--group-label", help="cohort label carried into the report")
    p.add_argument(
        "--ideal", action="append", required=True, metavar="SPEC",
        help="reference order, repeatable: clustered:k=4, uniform:k=4, "
             "desired:preset=NAME or desired:breaks=a,b,c",
    )
    p.add_argument(
        "--split-by-form", action="store_true",
        help="analyze state-funded and tuition-based admissions separately",
    )
    p.add_argument(
        "--exclude-below", type=float, metavar="X",
        help="also report the distance after dropping universities with mean below X",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("whatif", help="try exclusion floors against a tier scheme")
    _add_common(p)
    _add_analysis_common(p)
    p.add_argument(
        "--ideal", required=True, metavar="SPEC",
        help="tier scheme: desired:preset=NAME or desired:breaks=a,b,c",
    )
    p.add_argument(
        "--floors", required=True, metavar="A,B,...",
        help="comma-separated exclusion floors to try",
    )
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser("plotdata", help="dump per-university interval rows for plotting")
    _add_common(p)
    _add_analysis_common(p)
    p.add_argument(
        "--split-by-form", action="store_true",
        help="one row per university and study form",
    )
    p.set_defaults(func=_cmd_plotdata)

    return parser


def _cmd_impute(args: argparse.Namespace) -> int:
    import numpy as np

    from .data import load_csv, save_csv
    from .imputation import (
        _check_exclusion_rules,
        apply_exclusion,
        fill_missing,
        missingness_summary,
    )

    _check_exclusion_rules(args.min_students, args.max_missing_frac)
    dataset = load_csv(args.input)
    summary = missingness_summary(dataset)
    high = " (high)" if summary.high else ""
    print(
        f"{summary.n_missing} of {summary.n_total} scores missing "
        f"({summary.overall:.2%}){high}"
    )
    dataset, report = apply_exclusion(  # the loaded rows are let go here
        dataset,
        min_students=args.min_students,
        max_missing_frac=args.max_missing_frac,
    )
    if report.n_excluded:
        detail = "; ".join(
            f"{u}: {', '.join(report.reasons[u])}" for u in report.excluded_universities
        )
        print(
            f"excluded {report.n_excluded} universities "
            f"({report.excluded_student_count} students): {detail}"
        )
    else:
        print("excluded 0 universities")
    n_filled = int(np.isnan(dataset.scores).sum())  # fill_missing fills every gap or raises
    dataset = fill_missing(dataset, seed=args.seed)
    out = args.out or _default_out("imputed.csv")
    save_csv(dataset, out, include_imputed=True)
    print(f"filled {n_filled} scores (seed {args.seed}); wrote {out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .data import load_csv
    from .ideals import parse_ideal
    from .report import analyze, check_request, emit

    specs = [parse_ideal(text) for text in args.ideal]
    check_request(specs, None if args.exclude_below is None else [args.exclude_below])
    dataset = load_csv(args.input)
    report = analyze(
        dataset,
        specs,
        interval_method=args.interval_method,
        split_by_form=args.split_by_form,
        floor=args.exclude_below,
        drop_missing=args.drop_missing,
        group_label=args.group_label or "unlabeled",
    )
    for key, n in report.n_universities.items():
        print(f"slice {key}: {n} universities")
    for result in report.per_ideal:
        for key, outcome in result.by_form.items():
            print(f"  {result.spec}  [{key}]  hamming {outcome.hamming:.4f}")
    if report.exclusion is not None:
        for key, outcome in report.exclusion.by_form.items():
            print(
                f"  exclusion floor {report.exclusion.floor:g}  [{key}]  "
                f"removed {outcome.n_removed}, hamming {outcome.hamming_after:.4f}"
            )
    out = args.out or _default_out(f"report.{args.format}")
    emit(report, args.format, out)
    print(f"wrote {out}")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from .data import load_csv
    from .ideals import parse_ideal
    from .report import check_request, whatif_exclusion, write_whatif

    spec = parse_ideal(args.ideal)
    try:
        floors = [float(x) for x in args.floors.split(",")]
    except ValueError:
        raise ValueError(f"floors {args.floors!r} must be comma-separated numbers") from None
    check_request([spec], floors)
    dataset = load_csv(args.input)
    rows = whatif_exclusion(
        dataset,
        spec,
        floors,
        interval_method=args.interval_method,
        drop_missing=args.drop_missing,
    )
    for row in rows:
        if row.feasible:
            print(f"floor {row.floor:g}: removed {row.n_removed}, hamming {row.hamming:.4f}")
        else:
            print(f"floor {row.floor:g}: removed {row.n_removed}, infeasible")
    out = args.out or _default_out(f"whatif.{args.format}")
    write_whatif(rows, spec.describe(), args.format, out)
    print(f"wrote {out}")
    return 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    from .data import load_csv
    from .report import plot_rows, write_plot

    dataset = load_csv(args.input)
    rows = plot_rows(
        dataset,
        interval_method=args.interval_method,
        split_by_form=args.split_by_form,
        drop_missing=args.drop_missing,
    )
    out = args.out or _default_out(f"plotdata.{args.format}")
    write_plot(rows, args.format, out)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    # University ids may not fit the terminal's encoding; print them escaped
    # rather than fail after the output files are written.
    for stream in (sys.stdout, sys.stderr):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one line per warning, without the package's source line; the
        # filters stay as they are, so an "error" filter still raises
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:  # DatasetError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
