"""Self-tests of the benchmark: seeded inputs, repeatable traced counts, the
CSV oracle, the result format, and a zero failed ratio on every workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from cli_workload import GOLDEN, CliWorkload, csv_matches  # noqa: E402
from workloads import LIBRARY_WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {**{k: v for k, v in os.environ.items() if k != "ENTROKIT_THREADS"},
       "PYTHONPATH": str(ROOT / "src")}

#: Small traced runs: enough operations to touch every kind of each workload.
TRACE_OPS = {"measure": 40, "equilibrate": 9, "tabulate": 6}


@pytest.fixture
def scratch(request):
    """An empty directory inside the checkout's scratch area."""
    path = ROOT / ".perfbench_work" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args,
         "--workdir", str(ROOT / ".perfbench_work")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(totals):
    return {k: v for k, v in totals.items() if not k.endswith("_ns") and "_ns:" not in k}


@pytest.mark.parametrize("name", sorted(LIBRARY_WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = LIBRARY_WORKLOADS[name]
    a, b, c = cls(7), cls(7), cls(8)
    n = 2100  # spans three input chunks
    assert a.digest(n) == b.digest(n)
    assert a.digest(n) != c.digest(n)
    assert [a.kind(i) for i in range(50)] == [b.kind(i) for i in range(50)]


def test_cli_cycle_is_seeded():
    a, b, c = CliWorkload(7), CliWorkload(7), CliWorkload(8)
    out = Path("out")
    argv = [a.argv(i, out) for i in range(25)]
    assert argv == [b.argv(i, out) for i in range(25)]
    assert argv != [c.argv(i, out) for i in range(25)]
    for cycle in range(5):
        kinds = {a.kind(5 * cycle + k) for k in range(5)}
        assert kinds == {"validate", "measure", "equilibrate", "tabulate", "suite"}


@pytest.mark.parametrize("name", sorted(TRACE_OPS))
def test_traced_counts_repeat_and_layers_are_exercised(name):
    args = ["trace", "--workload", name, "--seed", "3", "--ops", str(TRACE_OPS[name]),
            "--traced", "1"]
    first, second = _worker(*args), _worker(*args)
    assert first["failed"] == 0 and second["failed"] == 0
    assert _counts(first["totals"]) == _counts(second["totals"])
    energy_of = first["totals"].get("calls:matter_models.energy_of", 0)
    # measure and equilibrate bypass the root finder; tabulate relies on it
    assert (energy_of > 0) == (name == "tabulate")


def test_traced_cli_call_repeats():
    w = CliWorkload(3)
    index = next(i for i in range(5) if w.kind(i) == "tabulate")
    args = ["cli-call", "--workload", "cli", "--seed", "3", "--index", str(index),
            "--traced", "1"]
    first, second = _worker(*args), _worker(*args)
    assert first["failed"] == 0
    assert _counts(first["totals"]) == _counts(second["totals"])
    assert first["totals"]["calls:cli.write_csv"] == 1


def test_golden_csvs_match_themselves_and_catch_a_change(scratch):
    for golden in sorted(GOLDEN.glob("*.csv")):
        assert csv_matches(golden, golden), golden.name
    text = (GOLDEN / "measure_pair1.csv").read_text()
    changed = scratch / "measure_pair1.csv"
    changed.write_text(text.replace("0.69314718055994529", "0.69314818055994529"))
    assert not csv_matches(changed, GOLDEN / "measure_pair1.csv")
    # theorem_suite.csv: only check, passed and n_trials are compared
    text = (GOLDEN / "theorem_suite.csv").read_text()
    suite = scratch / "theorem_suite.csv"
    suite.write_text(text.replace("4.0002249962427205", "4.1"))
    assert csv_matches(suite, GOLDEN / "theorem_suite.csv")
    suite.write_text(text.replace(",true,1000,", ",false,1000,", 1))
    assert not csv_matches(suite, GOLDEN / "theorem_suite.csv")


@pytest.mark.parametrize("workload", ["measure", "equilibrate", "tabulate", "cli"])
def test_every_workload_runs_clean(workload):
    proc = _bench("--workload", workload, "--seed", "11", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "measure", "--seed", "11", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["matter_models.energy_of.calls_per_op"]["value"] == 0


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "measure", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
