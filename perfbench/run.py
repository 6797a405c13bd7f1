"""entrokit benchmark: closed-loop workloads timed end to end, and a traced
run that splits the time and the call counts by module.

Run from the repository root:

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  BENCHMARK.json names the tabulate and cli workloads;
measure and equilibrate run the same way for focused comparisons.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a report
with provenance, sample counts, the failed ratio and per-kind latencies.

Every workload process is a fresh interpreter with ``src`` on PYTHONPATH and
ENTROKIT_THREADS unset.  Scratch files go to ``.perfbench_work/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("measure", "equilibrate", "tabulate", "cli")

#: Set-up is timed this many times per run (the workload process included)
#: and reported as the median; one untimed start before them fills the
#: bytecode and file caches.
SETUP_SAMPLES = 3

#: Operations of a traced library run.  Fixed, so that the call counts of a
#: seed repeat exactly; a traced cli run is one cycle of invocations.
TRACE_OPS = {"measure": 6000, "equilibrate": 600, "tabulate": 240}

#: Ceiling on any one child process, well inside the 180 s run limit.
CHILD_TIMEOUT_S = 150

COUNT_METRICS = (
    "matter_models.relation_evals_per_op",
    "matter_models.energy_of.calls_per_op",
    "matter_models.solve_energy_at_temperature.calls_per_op",
    "equilibrium.iterations_per_solve",
    "equilibrium.split_inversions_per_solve",
    "equilibrium.ds_dn_evals_per_solve",
    "open_systems.total_potential.calls_per_op",
    "open_systems.gauge.calls_per_op",
    "stoichiometry.compositions_per_op",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ENTROKIT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode: str, workload: str, seed: int, *extra: str) -> tuple[dict, float]:
    """Run one worker to completion; return its JSON line and its start time."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), "--workdir", str(WORKDIR), *extra]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} {workload} printed nothing")
    return json.loads(lines[-1]), t_spawn


def measure_end_to_end(workload: str, seed: int, seconds: float):
    spawn("setup", workload, seed)
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        out, t_spawn = spawn("setup", workload, seed)
        setup.append(out["t_ready"] - t_spawn)
    run, t_spawn = spawn("run", workload, seed, "--seconds", str(seconds))
    setup.append(run["t_ready"] - t_spawn)
    lat = run["latency"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (run["attempted"] / run["wall_s"], "ops/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_p99_ms": (lat["p99_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    report = {
        "samples": {"setup_s": len(setup), "latency": lat["n"]},
        "setup_s_samples": setup,
        "wall_s": run["wall_s"],
        "failed_ratio": run["failed"] / run["attempted"],
        "latency_by_kind": lat["by_kind"],
        "errors": run["errors"],
    }
    return metrics, run["attempted"], run["failed"], report


def measure_per_layer(workload: str, seed: int):
    import tracer  # the parent only merges totals; spans live in the workers

    if workload == "cli":
        from cli_workload import KINDS

        plain = [spawn("cli-call", workload, seed, "--index", str(i), "--traced", "0")[0]
                 for i in range(len(KINDS))]
        traced = [spawn("cli-call", workload, seed, "--index", str(i), "--traced", "1")[0]
                  for i in range(len(KINDS))]
        suite = [t["totals"] for t in traced if t["kind"] == "suite"]
        n_ops, suite_totals, n_suites = len(traced), tracer.merge(suite), len(suite)
    else:
        ops = ["--ops", str(TRACE_OPS[workload])]
        plain = [spawn("trace", workload, seed, *ops, "--traced", "0")[0]]
        traced = [spawn("trace", workload, seed, *ops, "--traced", "1")[0]]
        n_ops, suite_totals, n_suites = TRACE_OPS[workload], {}, 0
    totals = tracer.merge(t["totals"] for t in traced)
    values = tracer.per_layer(totals, n_ops, suite_totals, n_suites)
    values["cli.import_s"] = statistics.median(t["import_s"] for t in plain + traced)
    values["trace_overhead_ratio"] = (sum(t["wall_s"] for t in traced)
                                      / sum(t["wall_s"] for t in plain))
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    runs = plain + traced
    attempted = sum(t["attempted"] for t in runs)
    failed = sum(t["failed"] for t in runs)
    report = {
        "samples": {"traced_ops": n_ops, "untraced_ops": sum(t["attempted"] for t in plain)},
        "failed_ratio": failed / attempted,
        "errors": [e for t in runs for e in t["errors"]][:3],
        "spans_dir": str(WORKDIR.relative_to(ROOT)),
    }
    return metrics, attempted, failed, report


def unit_of(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "ms"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "entrokit").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "entrokit_commit": commit, "entrokit_src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "loop": "closed, one client",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entrokit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entrokit" / "__init__.py").is_file():
        print(f"error: no entrokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, report = measure_per_layer(args.workload, args.seed)
        else:
            metrics, attempted, failed, report = measure_end_to_end(
                args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR / "cli_runs", ignore_errors=True)

    report["provenance"] = provenance(args.workload, args.seed, args.seconds, args.trace)
    report["metrics_by_name"] = {k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
