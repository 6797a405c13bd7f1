"""The ``cli`` workload: a seeded cycle of entrokit command-line invocations
on the shipped scenarios, each in a fresh interpreter, and its oracle.

Every cycle runs the five invocations below once, in an order drawn from the
seed; the seed also picks the scenario that ``validate`` reads and the
``--seed`` given to ``run``.  Invocations write into their own output
directory, and the oracle compares every CSV with the copy under ``golden/``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

KINDS = ("validate", "measure", "equilibrate", "tabulate", "suite")
SCENARIOS = ("demo_gas.scn", "demo_equilibrium.scn", "demo_open.scn")

#: CSVs each kind writes.
OUTPUTS = {
    "validate": (),
    "measure": ("measure_pair1.csv", "schedule_sched1.csv", "decorrelate_j1.csv"),
    "equilibrate": ("equilibrium_prob1.csv",),
    "tabulate": ("table_tab1.csv",),
    "suite": ("theorem_suite.csv",),
}

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Numeric cells match the golden copy within this relative tolerance (with
#: ATOL for cells near zero).  It admits last-digit changes from reordered
#: arithmetic or closed forms replacing finite differences, and nothing larger.
RTOL = 1e-7
ATOL = 1e-12
#: Residual columns sit at rounding level; they only have to stay below this.
RESIDUAL_COLUMNS = ("kkt_residual", "fd_residual")
TOL_RESIDUAL = 1e-8
#: In theorem_suite.csv only these columns are compared; ``worst`` and
#: ``detail`` carry rounding-level numbers.
SUITE_COLUMNS = ("check", "passed", "n_trials")


class CliWorkload:
    name = "cli"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._cycles: dict[int, tuple] = {}

    def _cycle(self, c: int):
        if c not in self._cycles:
            rng = np.random.default_rng([self.seed, int.from_bytes(b"cli", "little"), c])
            order = tuple(KINDS[k] for k in rng.permutation(len(KINDS)))
            scenario = SCENARIOS[int(rng.integers(len(SCENARIOS)))]
            run_seed = int(rng.integers(0, 2**31))
            self._cycles[c] = (order, scenario, run_seed)
        return self._cycles[c]

    def kind(self, i: int) -> str:
        order, _, _ = self._cycle(i // len(KINDS))
        return order[i % len(KINDS)]

    def argv(self, i: int, outdir) -> list[str]:
        """Arguments of invocation ``i``, run from the repository root."""
        _, scenario, run_seed = self._cycle(i // len(KINDS))
        kind = self.kind(i)
        if kind == "validate":
            return ["validate", "--scenario", f"scenarios/{scenario}"]
        out = ["--out", str(outdir)]
        if kind == "measure":
            return ["run", "--scenario", "scenarios/demo_gas.scn", *out,
                    "--measure-entropy", "pair1", "--run-schedule", "sched1",
                    "--decorrelate", "j1"]
        if kind == "equilibrate":
            return ["run", "--scenario", "scenarios/demo_equilibrium.scn", *out,
                    "--equilibrate", "prob1", "--seed", str(run_seed)]
        if kind == "tabulate":
            return ["run", "--scenario", "scenarios/demo_open.scn", *out,
                    "--tabulate", "tab1"]
        return ["run", "--scenario", "scenarios/demo_gas.scn", *out,
                "--theorem-suite", "--seed", str(run_seed)]

    def check(self, i: int, returncode: int, stdout: str, outdir: Path) -> bool:
        if returncode != 0:
            return False
        kind = self.kind(i)
        if kind == "validate":
            return ": OK (" in stdout
        written = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
        if written != sorted(OUTPUTS[kind]):
            return False
        return all(csv_matches(outdir / name, GOLDEN / name) for name in written)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= ATOL + RTOL * abs(w)


def csv_matches(path: Path, golden: Path) -> bool:
    got, want = _read(path), _read(golden)
    if not got or got[0] != want[0] or len(got) != len(want):
        return False
    header = want[0]
    suite = path.name == "theorem_suite.csv"
    for g_row, w_row in zip(got[1:], want[1:]):
        if len(g_row) != len(w_row):
            return False
        for col, g, w in zip(header, g_row, w_row):
            if suite and col not in SUITE_COLUMNS:
                continue
            if col in RESIDUAL_COLUMNS:
                try:
                    if not abs(float(g)) <= TOL_RESIDUAL:
                        return False
                except ValueError:
                    return False
            elif not _cell_matches(g, w):
                return False
    return True
