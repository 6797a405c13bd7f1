"""Span recording around entrokit's public functions and methods, installed
from outside the library.

``install()`` wraps every public module-level function of each ``entrokit.*``
module and every public method (plus ``__post_init__``) of its classes.  A
function wrapper is bound under every name in every entrokit namespace that
held the original, so ``cli.open_fundamental_relation`` and
``open_systems.stable_equilibrium`` record spans just like the definitions in
their home modules.  The layer of a span is the module that defines the
wrapped callable.

Spans stay in memory as tuples (name, start_ns, end_ns, parent, op) and are
written out only when the traced run ends.  Only the traced runs install the
wrappers; ``totals``, ``merge`` and ``per_layer`` turn span logs into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

#: Callables whose return value feeds a per-layer metric.
_RESULT_HOOKS = {
    "equilibrium.stable_equilibrium": lambda r: r.iterations,
    "checks.fuzz_standard_processes": len,
    "checks.fuzz_weight_processes": len,
}

#: The eight checks of the CLI theorem suite.
SUITE_CHECKS = (
    "monotonicity_scan", "smoothness_scan", "bracket_single_valued",
    "theorem_lower_bound_check", "nondecrease_check", "pmm2_exhaustive_check",
    "decorrelation_check", "additivity_check",
)

_SCENARIO_BUILDERS = frozenset({
    "scenario.build_model", "scenario.build_reservoir", "scenario.build_weight",
    "scenario.build_state", "scenario.build_schedule_steps", "scenario.build_problem",
    "scenario.build_reference_env", "scenario.build_grid", "scenario.default_amounts",
})


class Tracer:
    """In-memory span log; ``op`` tags each span with the current operation."""

    def __init__(self):
        self.spans: list = []
        self.results: dict[int, object] = {}
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter_ns
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                results[idx] = hook(result)
            return result

        return traced


def _entrokit_modules():
    import entrokit

    mods = [entrokit]
    for info in pkgutil.iter_modules(entrokit.__path__):
        mods.append(importlib.import_module(f"entrokit.{info.name}"))
    return mods


def install() -> Tracer:
    """Wrap entrokit's public callables in place and return the span log."""
    tracer = Tracer()
    mods = _entrokit_modules()
    for mod in mods[1:]:
        layer = mod.__name__.split(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = tracer.wrap(f"{layer}.{attr}", obj)
                for other in mods:
                    for alias, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, alias, wrapped)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (meth == "__post_init__"
                                                   or not meth.startswith("_")):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{attr}.{meth}", fn))
    return tracer


def totals(tracer: Tracer) -> dict:
    """Raw sums over the span log, additive across traced processes."""
    spans = tracer.spans
    n = len(spans)
    child_ns = [0] * n
    in_solve = [False] * n
    in_fuzz = [False] * n
    in_build = [False] * n
    out = defaultdict(int)
    for i, (name, start, end, parent, _op) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            pname = spans[parent][0]
            in_solve[i] = in_solve[parent] or pname == "equilibrium.stable_equilibrium"
            in_fuzz[i] = in_fuzz[parent] or pname.startswith("checks.fuzz_")
            in_build[i] = in_build[parent] or pname in _SCENARIO_BUILDERS
    for i, (name, start, end, parent, _op) in enumerate(spans):
        dur = end - start
        own = dur - child_ns[i]
        out[f"calls:{name}"] += 1
        out[f"self_ns:{name}"] += own
        out[f"total_ns:{name}"] += dur
        out[f"layer_self_ns:{name.split('.', 1)[0]}"] += own
        if in_solve[i]:
            out["solve_split"] += name == "matter_models.solve_energy_at_temperature"
            out["solve_ds_dn"] += name == "matter_models.IdealGasMixture.ds_dn"
        if in_fuzz[i] and name == "process_engine.run_schedule":
            out["fuzz_runs"] += 1
        if name in _SCENARIO_BUILDERS and not in_build[i]:
            out["build_ns"] += dur
    for i, value in tracer.results.items():
        name = spans[i][0]
        key = "iterations" if name == "equilibrium.stable_equilibrium" else "fuzz_kept"
        out[key] += value
    return dict(out)


def merge(parts) -> dict:
    out = defaultdict(int)
    for part in parts:
        for key, value in part.items():
            out[key] += value
    return dict(out)


def per_layer(tot: dict, n_ops: int, suite: dict, n_suites: int) -> dict:
    """Per-layer metrics from the totals of ``n_ops`` operations, of which the
    theorem-suite invocations contributed ``suite`` (``n_suites`` of them)."""

    def per(value, base):
        return value / base if base else 0.0

    def calls(name):
        return per(tot.get(f"calls:{name}", 0), n_ops)

    def self_ms(name, src=tot, base=n_ops):
        return per(src.get(f"self_ns:{name}", 0) / 1e6, base)

    def layer_ms(layer, src=tot, base=n_ops):
        return per(src.get(f"layer_self_ns:{layer}", 0) / 1e6, base)

    def total_ms(name):
        return per(tot.get(f"total_ns:{name}", 0) / 1e6, n_ops)

    solves = tot.get("calls:equilibrium.stable_equilibrium", 0)
    metrics = {
        "matter_models.relation_evals_per_op": calls("matter_models.IdealGasMixture.entropy"),
        "matter_models.energy_of.calls_per_op": calls("matter_models.energy_of"),
        "matter_models.solve_energy_at_temperature.calls_per_op":
            calls("matter_models.solve_energy_at_temperature"),
        "matter_models.self_ms_per_op": layer_ms("matter_models"),
        "process_engine.run_schedule.self_ms_per_op": self_ms("process_engine.run_schedule"),
        "process_engine.reversible_standard_process.self_ms_per_op":
            self_ms("process_engine.reversible_standard_process"),
        "process_engine.self_ms_per_op": layer_ms("process_engine"),
        "equilibrium.iterations_per_solve": per(tot.get("iterations", 0), solves),
        "equilibrium.split_inversions_per_solve": per(tot.get("solve_split", 0), solves),
        "equilibrium.ds_dn_evals_per_solve": per(tot.get("solve_ds_dn", 0), solves),
        "equilibrium.stable_equilibrium.self_ms_per_op":
            self_ms("equilibrium.stable_equilibrium"),
        "equilibrium.self_ms_per_op": layer_ms("equilibrium"),
        "equilibrium.pressure_of.self_ms_per_op": self_ms("equilibrium.pressure_of"),
        "open_systems.total_potential.calls_per_op": calls("open_systems.total_potential"),
        "open_systems.total_potential.self_ms_per_op":
            self_ms("open_systems.total_potential"),
        "open_systems.gauge.calls_per_op": calls("open_systems.ReferenceEnvironment.gauge"),
        "open_systems.gauge.self_ms_per_op":
            self_ms("open_systems.ReferenceEnvironment.gauge"),
        "open_systems.open_energy_entropy.self_ms_per_op":
            self_ms("open_systems.open_energy_entropy"),
        "open_systems.self_ms_per_op": layer_ms("open_systems"),
        "stoichiometry.compositions_per_op":
            calls("stoichiometry.Composition.__post_init__"),
        "scenario.load_ms": total_ms("scenario.load_scenario"),
        "scenario.validate_ms": total_ms("scenario.validate_scenario"),
        "scenario.build_ms": per(tot.get("build_ns", 0) / 1e6, n_ops),
        "cli.write_csv_ms": total_ms("cli.write_csv"),
        "checks.fuzz_acceptance_ratio":
            per(tot.get("fuzz_kept", 0), tot.get("fuzz_runs", 0)),
        "correlations.self_ms_per_suite": layer_ms("correlations", suite, n_suites),
    }
    for check in SUITE_CHECKS:
        metrics[f"checks.{check}.self_ms"] = self_ms(f"checks.{check}", suite, n_suites)
    return metrics


def write_spans(tracer: Tracer, path) -> None:
    """Write the span log as tab-separated lines: name, start, end, parent, op."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\n")
        for name, start, end, parent, op in tracer.spans:
            fh.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")
