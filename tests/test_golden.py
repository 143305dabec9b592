"""Golden-file tests: the seeded CLI outputs, byte for byte.

The cohort is a fixed ``SynthSpec``: 40 universities, gaps on both study
forms, olympiad gaps (two of them on forms whose band is capped at 100), one
zero-variance form with an ordinary gap, and six universities that the
default exclusion rule drops.  The files under ``tests/golden/`` are the
outputs of exactly the commands below and pin the gap-filling draw order
(university, form, position) and every downstream number.  The per-form
``plotdata`` CSV pins ``repr`` of every slice's mean and std, which the
analyze JSON sees only through Hamming distances.  The CSV ``analyze`` and
``whatif`` files and the min/max ``plotdata`` JSON pin the other branch of
each writer.  Regenerate them
only with a change that means to alter the output, and say so.
"""

from pathlib import Path

import pytest

from unihet import save_csv
from unihet.cli import main
from unihet.imputation import apply_exclusion

from helpers import SynthSpec, form_stats, synth

GOLDEN = Path(__file__).resolve().parent / "golden"

SPEC = SynthSpec(
    n_universities=40,
    students_per_university=(10, 30),
    mean_range=(45.0, 92.0),
    std_range=(0.0, 8.0),
    missing_frac=0.1,
    seed=0,
    tuition_frac=0.3,
)
FILL_SEED = "7"
IDEALS = ("clustered:k=4", "uniform:k=5", "desired:preset=electronic")
IDEAL_ARGS = [a for ideal in IDEALS for a in ("--ideal", ideal)]
FLOORS = ",".join(str(f) for f in range(40, 90, 5))

# golden file -> subcommand arguments, run on the golden impute output
COMMANDS = {
    "plotdata_split.csv": ["plotdata", "--split-by-form", "--format", "csv"],
    "analyze_split_minmax.json": [
        "analyze", *IDEAL_ARGS, "--split-by-form", "--interval-method", "min_max",
        "--exclude-below", "55",
    ],
    "whatif.json": ["whatif", "--ideal", "desired:preset=electronic", "--floors", FLOORS],
    "analyze_exclude.csv": ["analyze", *IDEAL_ARGS, "--format", "csv", "--exclude-below", "55"],
    "whatif.csv": [
        "whatif", "--ideal", "desired:preset=electronic", "--floors", FLOORS, "--format", "csv",
    ],
    "plotdata_minmax.json": ["plotdata", "--interval-method", "min_max", "--format", "json"],
}


def test_cohort_covers_every_fill_path():
    kept, report = apply_exclusion(synth(SPEC))
    assert report.n_excluded == 6
    gaps = [r for r in kept if r.missing]
    assert {r.form for r in gaps} == {"state_funded", "tuition_based"}
    groups = {}
    for r in kept:
        if not r.missing:
            groups.setdefault((r.university, r.form), []).append(r.score)
    stats = {key: form_stats(scores) for key, scores in groups.items()}
    olympiad = [stats[r.university, r.form] for r in gaps if r.basis == "olympiad"]
    assert any(s.olympiad_hi == 100.0 for s in olympiad)
    assert any(s.olympiad_hi < 100.0 for s in olympiad)
    flat = [
        (r.university, r.form)
        for r in gaps
        if r.basis != "olympiad" and stats[r.university, r.form].std == 0.0
    ]
    assert flat == [("U06", "tuition_based")]


def test_impute_and_analyze_outputs_match_golden_files(tmp_path):
    students = str(tmp_path / "students.csv")
    imputed = str(tmp_path / "imputed.csv")
    report = str(tmp_path / "report.json")
    save_csv(synth(SPEC), students)

    assert main(["impute", "--input", students, "--out", imputed, "--seed", FILL_SEED]) == 0
    assert Path(imputed).read_bytes() == (GOLDEN / "impute.csv").read_bytes()

    argv = ["analyze", "--input", imputed, "--out", report, "--exclude-below", "55"]
    assert main(argv + IDEAL_ARGS) == 0
    assert Path(report).read_bytes() == (GOLDEN / "analyze.json").read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_file(tmp_path, name):
    out = tmp_path / name
    argv = COMMANDS[name] + ["--input", str(GOLDEN / "impute.csv"), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
