"""One benchmark process: sets up a workload in a fresh interpreter, runs it,
checks its outputs and prints one JSON line.  ``run.py`` starts it from the
repository root with ``src`` on PYTHONPATH; its modes are

    setup     import entrokit and build the inputs, then report the time
    run       setup, then the closed loop for --seconds of timed work
    trace     setup, then a fixed number of operations, traced or not
    cli-call  one CLI invocation in-process through entrokit.cli.main

Only ``--traced 1`` imports the tracer.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()
import entrokit  # noqa: E402  (timed: the import is part of set-up)

IMPORT_S = time.perf_counter() - _T_IMPORT

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from cli_workload import KINDS, CliWorkload  # noqa: E402
from workloads import LIBRARY_WORKLOADS  # noqa: E402

#: Longest a single CLI invocation may take before the run is abandoned.
CLI_TIMEOUT_S = 120

#: Capacity of the latency buffer of a library run, far above what a run
#: completes; the buffer's memory is the same in every run.
MAX_OPS = 1 << 20


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _summary(latencies, kinds) -> dict:
    lat_ms = np.asarray(latencies) * 1e3
    by_kind = {}
    for kind in sorted(set(kinds)):
        sel = lat_ms[[k == kind for k in kinds]]
        by_kind[kind] = {"p50_ms": float(np.percentile(sel, 50)), "n": int(sel.size)}
    return {
        "n": int(lat_ms.size),
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "by_kind": by_kind,
    }


def _verify(w, i: int, result) -> str | None:
    """Why operation ``i`` failed (it raised, or missed its oracle), or None."""
    if isinstance(result, Exception):
        return _error(result)
    try:
        return None if w.check(i, result) else "oracle mismatch"
    except Exception as exc:  # a crashing oracle fails the operation
        return _error(exc)


def _run_library(w, seconds: float) -> dict:
    """Closed loop for ``seconds`` of timed work.  Each result is checked as
    soon as its operation returns, with the clock paused, so that no result
    is kept and memory does not grow with the number of operations."""
    latencies = np.full(MAX_OPS, np.nan)  # written now, so its pages count once
    failed, errors = 0, []
    clock = time.perf_counter
    t_ready = time.monotonic()
    start = clock()
    paused = 0.0
    i = 0
    while i < MAX_OPS:
        t0 = clock()
        if t0 - start - paused >= seconds:
            break
        try:
            result = w.op(i)
        except Exception as exc:  # counted as a failed operation
            result = exc
        t1 = clock()
        latencies[i] = t1 - t0
        note = _verify(w, i, result)
        if note is not None:
            failed += 1
            if len(errors) < 3:
                errors.append(f"op {i} ({w.kind(i)}): {note}")
        i += 1
        paused += clock() - t1
    wall = clock() - start - paused
    peak = _peak_rss_mb(resource.RUSAGE_SELF)
    return {"t_ready": t_ready, "wall_s": wall, "attempted": i, "failed": failed,
            "errors": errors, "peak_rss_mb": peak,
            "latency": _summary(latencies[:i], [w.kind(k) for k in range(i)])}


def _run_cli(w: CliWorkload, seconds: float, workdir: Path, root: Path) -> dict:
    runs, latencies = [], []
    clock = time.perf_counter
    t_ready = time.monotonic()
    start = clock()
    deadline = start + seconds
    i = 0
    while True:
        outdir = workdir / f"inv{i}"
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "-m", "entrokit.cli", *w.argv(i, outdir)],
            cwd=root, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        latencies.append(clock() - t0)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
        i += 1
        if i % len(KINDS) == 0 and clock() >= deadline:
            break
    wall = clock() - start
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    failed, errors = 0, []
    for k, (code, out, err) in enumerate(runs):
        if not w.check(k, code, out, workdir / f"inv{k}"):
            failed += 1
            if len(errors) < 3:
                errors.append(f"invocation {k} ({w.kind(k)}): exit {code} {err.strip()[-200:]}")
    shutil.rmtree(workdir, ignore_errors=True)
    return {"t_ready": t_ready, "wall_s": wall, "attempted": i, "failed": failed,
            "errors": errors, "peak_rss_mb": peak,
            "latency": _summary(latencies, [w.kind(k) for k in range(i)])}


def _trace_library(w, n_ops: int, traced: bool, spans_path: Path) -> dict:
    tr = None
    if traced:
        import tracer

        tr = tracer.install()
    results = []
    start = time.perf_counter()
    for i in range(n_ops):
        if tr is not None:
            tr.op = i
        try:
            results.append(w.op(i))
        except Exception as exc:  # counted as a failed operation
            results.append(exc)
    wall = time.perf_counter() - start
    out = {"wall_s": wall, "import_s": IMPORT_S, "attempted": n_ops}
    if tr is not None:
        out["totals"] = tracer.totals(tr)
        tracer.write_spans(tr, spans_path)
    notes = [(i, _verify(w, i, r)) for i, r in enumerate(results)]
    errors = [f"op {i} ({w.kind(i)}): {note}" for i, note in notes if note is not None]
    out["failed"], out["errors"] = len(errors), errors[:3]
    return out


def _cli_call(w: CliWorkload, index: int, traced: bool, workdir: Path,
              spans_path: Path) -> dict:
    start = time.perf_counter()
    from entrokit import cli

    import_s = IMPORT_S + time.perf_counter() - start
    tr = None
    if traced:
        import tracer

        tr = tracer.install()
        tr.op = index
    outdir = workdir / f"call{index}"
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(w.argv(index, outdir))
    wall = time.perf_counter() - start
    out = {"wall_s": wall, "import_s": import_s, "attempted": 1, "kind": w.kind(index)}
    if tr is not None:
        out["totals"] = tracer.totals(tr)
        tracer.write_spans(tr, spans_path)
    ok = w.check(index, code, buf.getvalue(), outdir)
    out["failed"] = 0 if ok else 1
    out["errors"] = [] if ok else [f"invocation {index} ({w.kind(index)}): exit {code}"]
    shutil.rmtree(outdir, ignore_errors=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "run", "trace", "cli-call"))
    parser.add_argument("--workload", required=True,
                        choices=(*LIBRARY_WORKLOADS, CliWorkload.name))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if args.workload == CliWorkload.name:
        w = CliWorkload(args.seed)
    else:
        w = LIBRARY_WORKLOADS[args.workload](args.seed)
    spans_path = args.workdir / f"spans_{args.workload}_{args.index}.tsv"

    if args.mode == "setup":
        _emit({"t_ready": time.monotonic()})
    elif args.mode == "run" and args.workload == CliWorkload.name:
        _emit(_run_cli(w, args.seconds, args.workdir / "cli_runs", root))
    elif args.mode == "run":
        _emit(_run_library(w, args.seconds))
    elif args.mode == "trace":
        _emit(_trace_library(w, args.ops, bool(args.traced), spans_path))
    else:
        _emit(_cli_call(w, args.index, bool(args.traced), args.workdir, spans_path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
