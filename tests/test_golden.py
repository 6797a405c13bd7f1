"""Behaviour lock: every shipped scenario job against its golden CSV.

``tests/golden/`` holds the CSVs that ``entrokit run`` wrote for these jobs,
with each scenario's own seed, before the root finder became a pure-Python
port.  Refactors must reproduce them within the tolerances below; a change
meant to move results regenerates them and says why.
"""

import csv
import math
from pathlib import Path

import pytest

from entrokit import cli, scenario
from entrokit.cli import main

from conftest import EVERY_DERIVED, masked

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: Numeric cells match within RTOL relative plus ATOL absolute: room for
#: last-digit changes from reordered arithmetic, nothing larger.
RTOL = 1e-7
ATOL = 1e-12
#: Residual columns sit at rounding level; they only have to stay below this.
RESIDUAL_COLUMNS = ("kkt_residual", "fd_residual")
TOL_RESIDUAL = 1e-8
#: In theorem_suite.csv only these columns are compared; ``worst`` and
#: ``detail`` carry rounding-level numbers.
SUITE_COLUMNS = ("check", "passed", "n_trials")

JOBS = {
    "measure": ("demo_gas.scn", ["--measure-entropy", "pair1"], "measure_pair1.csv"),
    "schedule": ("demo_gas.scn", ["--run-schedule", "sched1"], "schedule_sched1.csv"),
    "decorrelate": ("demo_gas.scn", ["--decorrelate", "j1"], "decorrelate_j1.csv"),
    "equilibrate": ("demo_equilibrium.scn", ["--equilibrate", "prob1"],
                    "equilibrium_prob1.csv"),
    "tabulate": ("demo_open.scn", ["--tabulate", "tab1"], "table_tab1.csv"),
    "theorem_suite": ("demo_gas.scn", ["--theorem-suite"], "theorem_suite.csv"),
}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cell_matches(got, want):
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= ATOL + RTOL * abs(w)


def _check_job(job, out):
    scn, flags, name = JOBS[job]
    code = main(["run", "--scenario", str(ROOT / "scenarios" / scn), "--out", str(out),
                 *flags])
    assert code == 0
    got, want = _read(out / name), _read(GOLDEN / name)
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for g_row, w_row in zip(got[1:], want[1:]):
        assert len(g_row) == len(w_row)
        for col, g, w in zip(header, g_row, w_row):
            if name == "theorem_suite.csv" and col not in SUITE_COLUMNS:
                continue
            if col in RESIDUAL_COLUMNS:
                assert abs(float(g)) <= TOL_RESIDUAL, (col, g)
            else:
                assert _cell_matches(g, w), (col, g, w)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_shipped_job_matches_golden(job, tmp_path):
    _check_job(job, tmp_path)


def test_scenario_jobs_match_golden_through_the_base_derivations(monkeypatch, tmp_path):
    # every scenario-built model with its closed forms hidden, so each method
    # takes MatterModel's finite difference or bracketed root; the theorem
    # suite builds its models in the CLI itself
    def build_model(*args, _real=scenario.build_model):
        return masked(_real(*args), hide=EVERY_DERIVED)

    monkeypatch.setattr(scenario, "build_model", build_model)
    monkeypatch.setattr(cli, "build_model", build_model)
    for job in sorted(set(JOBS) - {"theorem_suite"}):
        _check_job(job, tmp_path / job)
