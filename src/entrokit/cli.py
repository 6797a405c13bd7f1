"""Scenario-driven command line: validate configs, run measurements,
equilibrations, tabulations and the theorem suite, emit CSV.

Jobs write energies, entropies, pressures and potentials times
``Scenario.kb``; residuals, the theorem suite and messages stay in k_B units.

Exit codes: 0 ok, 1 theorem-suite failures, 2 parse, 3 integrity/schema,
4 domain or range, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .errors import EntrokitError, Infeasible, IntegrityError, NonConvergence, ParseError
from .matter_models import ThermalReservoir, state
from .process_engine import measure_entropy_difference, run_schedule
from .scenario import (
    Scenario,
    _fmt,
    build_grid,
    build_model,
    build_problem,
    build_reference_env,
    build_reservoir,
    build_schedule_steps,
    build_state,
    load_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_PARSE = 2
EXIT_INTEGRITY = 3
EXIT_DOMAIN = 4
EXIT_NONCONVERGENCE = 5


def write_csv(path: Path, header, rows) -> None:
    """Header and rows as CSV; a cell holding a comma or a quote is quoted."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_fmt(x) for x in row] for row in rows)


def _load(path) -> Scenario | None:
    """The scenario at ``path``, or None after a one-line message saying why not."""
    try:
        return load_scenario(path)
    except FileNotFoundError:
        print(f"error: scenario file not found: {path}", file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario file {path}: {exc}", file=sys.stderr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    return None


def cmd_validate(args) -> int:
    scn = _load(args.scenario)
    if scn is None:
        return EXIT_PARSE
    issues = validate_scenario(scn)
    if not issues:
        print(f"{args.scenario}: OK ({scn.name})")
        return EXIT_OK
    for issue in issues:
        print(str(issue))
    print(f"{args.scenario}: {len(issues)} issue(s)")
    return EXIT_INTEGRITY


def _run_measure(scn: Scenario, pair_name: str, outdir: Path) -> None:
    decl = scn.pairs[pair_name]
    sys_name, st1 = build_state(scn, decl["from"])
    _, st2 = build_state(scn, decl["to"])
    model = build_model(scn, sys_name)
    reservoir = build_reservoir(scn, decl["reservoir"])
    delta_s = scn.kb * measure_entropy_difference(model, st1, st2, reservoir)
    write_csv(
        outdir / f"measure_{pair_name}.csv",
        ["pair", "from", "to", "reservoir", "T_R", "delta_S"],
        [[pair_name, decl["from"], decl["to"], decl["reservoir"],
          reservoir.temperature, delta_s]],
    )
    print(f"measure {pair_name}: delta_S = {delta_s:.9g}")


def _run_schedule_cmd(scn: Scenario, sched_name: str, outdir: Path) -> None:
    decl = scn.schedules[sched_name]
    sys_name = decl["system"]
    model = build_model(scn, sys_name)
    _, st0 = build_state(scn, decl["start"])
    reservoir = build_reservoir(scn, decl["reservoir"])
    schedule = build_schedule_steps(scn, sched_name)
    record, kb = run_schedule(model, st0, reservoir, schedule), scn.kb
    work, sigma = kb * record.work, kb * record.sigma_gen
    write_csv(
        outdir / f"schedule_{sched_name}.csv",
        ["schedule", "E_initial", "V_initial", "E_final", "V_final",
         "dE_res", "work", "sigma_gen", "reversible"],
        [[sched_name, kb * record.initial.energy, record.initial.params.volume,
          kb * record.final.energy, record.final.params.volume,
          kb * record.d_e_res, work, sigma, record.reversible]],
    )
    print(f"schedule {sched_name}: work = {work:.9g}, sigma = {sigma:.3g}")


def _run_equilibrate(scn: Scenario, prob_name: str, outdir: Path) -> None:
    from .equilibrium import equilibrium_residual, pressure_of, stable_equilibrium

    prob = build_problem(scn, prob_name)
    sol = stable_equilibrium(prob)
    residual, kb = equilibrium_residual(sol, prob), scn.kb
    n_se = [x for st in sol.states for x in st.comp.amounts]
    eps = sol.eps_se.epsilon
    pressures = [kb * pressure_of(m, st) for m, st in zip(prob.models, sol.states)]
    header = (["problem", "S_se", "T"]
              + [f"eps_{i}" for i in range(len(eps))]
              + [f"n_{i}" for i in range(len(n_se))]
              + [f"p_{i}" for i in range(len(pressures))]
              + ["kkt_residual", "fd_residual", "boundary", "degenerate"])
    row = ([prob_name, kb * sol.entropy, sol.temperature]
           + list(eps) + n_se + pressures
           + [sol.kkt_residual, residual, sol.boundary, sol.degenerate])
    write_csv(outdir / f"equilibrium_{prob_name}.csv", header, [row])
    print(f"equilibrate {prob_name}: S_se = {kb * sol.entropy:.9g}, T = {sol.temperature:.9g}")


def _run_tabulate(scn: Scenario, table_name: str, outdir: Path) -> None:
    from .open_systems import open_fundamental_relation

    decl = scn.tables[table_name]
    model = build_model(scn, decl["system"])
    env = build_reference_env(scn, decl["env"])
    grid = build_grid(scn, table_name)
    rows = open_fundamental_relation(env, model, grid)
    r = len(grid.compositions[0])  # from the grid, so an all-gap table keeps its columns
    tau = grid.network.n_reactions if grid.reactive else 0
    header = (["E"] + [f"n0_{i}" for i in range(r)] + ["V", "S_se"]
              + [f"eps_{i}" for i in range(tau)] + ["T", "p"]
              + [f"mu_{i}" for i in range(r)] + ["status"])
    out_rows, kb = [], scn.kb
    for row in rows:
        eps = list(row.eps) + [float("nan")] * (tau - len(row.eps))
        mu = [kb * x for x in row.mu] + [float("nan")] * (r - len(row.mu))
        out_rows.append([kb * row.energy, *row.n0, row.volume, kb * row.entropy, *eps,
                         row.temperature, kb * row.pressure, *mu, row.status])
    write_csv(outdir / f"table_{table_name}.csv", header, out_rows)
    gaps = sum(1 for row in rows if row.status != "ok")
    print(f"tabulate {table_name}: {len(rows)} points, {gaps} gaps")


def _run_decorrelate(scn: Scenario, joint_name: str, outdir: Path,
                     scenario_path: Path) -> None:
    from .correlations import joint_energy, joint_entropies, load_joint_csv

    decl = scn.joints[joint_name]
    joint_path = scenario_path.parent / decl["file"]  # an absolute path stays as it is
    joint = load_joint_csv(joint_path)
    # the joint file's energies pass through in its own units
    h, h_a, h_b, sigma = (scn.kb * x for x in joint_entropies(joint))
    write_csv(
        outdir / f"decorrelate_{joint_name}.csv",
        ["joint", "sigma", "H_joint", "H_A", "H_B", "energy"],
        [[joint_name, sigma, h, h_a, h_b, joint_energy(joint)]],
    )
    print(f"decorrelate {joint_name}: sigma = {sigma:.9g}")


def _run_theorem_suite(outdir: Path, seed: int) -> bool:
    """Condensed invariant suite on the built-in models; returns all-passed."""
    import random

    from . import checks
    from .matter_models import ideal_gas_model

    rng = random.Random(seed)
    gas = ideal_gas_model(3.0)
    st0 = state(1.5, 1.0, [1.0])
    reservoir = ThermalReservoir(1.0, 0.0, -1e6, 1e6)

    results = [
        checks.monotonicity_scan(gas, st0.params, st0.comp, 0.1, 100.0),
        checks.smoothness_scan(gas, st0.params, st0.comp, 0.1, 100.0, n_points=200),
        checks.bracket_single_valued(gas, st0.params, st0.comp, 0.1, 50.0),
        checks.theorem_lower_bound_check(
            checks.fuzz_standard_processes(gas, st0, reservoir, rng, n=400),
            reservoir.temperature,
        ),
        checks.nondecrease_check(
            checks.fuzz_weight_processes(gas, st0, reservoir, rng, n=1000), gas
        ),
        checks.pmm2_exhaustive_check(gas, st0, reservoir),
        checks.decorrelation_check(rng, n=2000),
    ]

    def draw():
        return state(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0), [1.0])

    pairs = [((draw(), draw()), (draw(), draw())) for _ in range(30)]
    results.append(checks.additivity_check(gas, ideal_gas_model(5.0), pairs, reservoir))

    rows = [[r.name, r.passed, r.n_trials, r.worst, r.detail] for r in results]
    write_csv(outdir / "theorem_suite.csv",
              ["check", "passed", "n_trials", "worst", "detail"], rows)
    for r in results:
        print(r.line())
    return all(r.passed for r in results)


def cmd_run(args) -> int:
    scn = _load(args.scenario)
    if scn is None:
        return EXIT_PARSE
    issues = validate_scenario(scn)
    if issues:
        for issue in issues:
            print(str(issue), file=sys.stderr)
        return EXIT_INTEGRITY

    seed = args.seed if args.seed is not None else scn.seed

    outdir = Path(args.out)
    scenario_path = Path(args.scenario)

    jobs = (
        ("pair", scn.pairs, args.measure_entropy, lambda n: _run_measure(scn, n, outdir)),
        ("schedule", scn.schedules, args.run_schedule,
         lambda n: _run_schedule_cmd(scn, n, outdir)),
        ("equilibrium", scn.problems, args.equilibrate,
         lambda n: _run_equilibrate(scn, n, outdir)),
        ("table", scn.tables, args.tabulate, lambda n: _run_tabulate(scn, n, outdir)),
        ("joint", scn.joints, args.decorrelate,
         lambda n: _run_decorrelate(scn, n, outdir, scenario_path)),
    )
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for kind, declared, names, run in jobs:
            for name in names:
                if name not in declared:
                    raise IntegrityError(f"no {kind} '{name}' declared")
                run(name)
        if args.theorem_suite:
            if not _run_theorem_suite(outdir, seed):
                return EXIT_SUITE_FAILED
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # an unreadable joint file or an unusable output directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (NonConvergence, Infeasible) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except EntrokitError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _seed(text: str) -> int:
    """A non-negative integer seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got '{text}'")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrokit",
        description="Operational thermodynamic-state calculus on scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run computations from a scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=_seed, default=None)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--measure-entropy", action="append", default=[],
                       metavar="PAIR")
    p_run.add_argument("--run-schedule", action="append", default=[],
                       metavar="SCHEDULE")
    p_run.add_argument("--equilibrate", action="append", default=[],
                       metavar="PROBLEM")
    p_run.add_argument("--tabulate", action="append", default=[], metavar="TABLE")
    p_run.add_argument("--decorrelate", action="append", default=[], metavar="JOINT")
    p_run.add_argument("--theorem-suite", action="store_true")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
