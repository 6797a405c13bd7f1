"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they pass."""

import math
import random
from pathlib import Path

import numpy as np

from entrokit.checks import (
    fuzz_standard_processes,
    fuzz_weight_processes,
    monotonicity_scan,
    smoothness_scan,
)
from entrokit.cli import main
from entrokit.correlations import (
    JointState,
    decorrelation_entropy,
    joint_energy,
    product_state,
)
from entrokit.equilibrium import (
    EquilibriumProblem,
    equilibrium_residual,
    gibbs_residual,
    stable_equilibrium,
)
from entrokit.errors import DomainError
from entrokit.matter_models import (
    IdealGasMixture,
    Parameters,
    Species,
    ThermalReservoir,
    entropy_of,
    ideal_gas_model,
    state,
)
from entrokit.open_systems import OpenState, gibbs_open_residual
from entrokit.process_engine import (
    assign_temperature,
    measure_entropy_difference,
    measure_entropy_difference_composite,
    measure_temperature_ratio,
)
from entrokit.scenario import parse_scenario, serialize_scenario, validate_scenario
from entrokit.stoichiometry import Composition, ReactionNetwork

from conftest import ReservoirModel

GAS3 = ideal_gas_model(3.0)
GAS5 = ideal_gas_model(5.0)
WIDE = ThermalReservoir(1.0, 0.0, -1e9, 1e9)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(name: str, passed: bool, detail: str = ""):
    print(f"{'PASS' if passed else 'FAIL'} {name} {detail}".rstrip())
    assert passed, f"{name} {detail}"


def random_gas_state(rng):
    return state(rng.uniform(0.3, 6.0), rng.uniform(0.3, 6.0), [1.0])


def test_criterion_1_operational_vs_analytic_entropy():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        st1, st2 = random_gas_state(rng), random_gas_state(rng)
        measured = measure_entropy_difference(GAS3, st1, st2, WIDE)
        analytic = entropy_of(GAS3, st2) - entropy_of(GAS3, st1)
        worst = max(worst, abs(measured - analytic))
    report("criterion-1 operational-vs-analytic entropy (1000 pairs)",
           worst <= 1e-9, f"worst={worst:.3e}")


def test_criterion_2_reservoir_energy_lower_bound():
    rng = random.Random(101)
    st0 = state(1.5, 1.0, [1.0])
    samples = fuzz_standard_processes(GAS3, st0, WIDE, rng, n=1000)
    assert len(samples) == 1000
    t_res = WIDE.temperature
    worst_gap = math.inf
    mismatches = 0
    for record, s1, s2 in samples:
        gap = record.d_e_res - (-t_res * (s2 - s1))
        worst_gap = min(worst_gap, gap)
        at_bound = gap <= 1e-9 * max(1.0, t_res)
        if at_bound != (record.sigma_gen <= 1e-9):
            mismatches += 1
    report("criterion-2 reservoir-energy lower bound (1000 processes)",
           worst_gap >= -1e-12 and mismatches == 0,
           f"worst_gap={worst_gap:.3e} mismatches={mismatches}")


def test_criterion_3_entropy_nondecrease():
    rng = random.Random(102)
    st0 = state(1.5, 1.0, [1.0])
    records = fuzz_weight_processes(GAS3, st0, WIDE, rng, n=10000)
    assert len(records) == 10000
    worst = math.inf
    mismatches = 0
    for record in records:
        delta_s = entropy_of(GAS3, record.final) - entropy_of(GAS3, record.initial)
        worst = min(worst, delta_s)
        if (record.sigma_gen <= 1e-12) and abs(delta_s) > 1e-9:
            mismatches += 1
    report("criterion-3 entropy nondecrease (10000 weight processes)",
           worst >= -1e-12 and mismatches == 0,
           f"worst_dS={worst:.3e} mismatches={mismatches}")


def test_criterion_4_temperature_ratio_and_assignment():
    rng = np.random.default_rng(103)
    cold = ThermalReservoir(0.5, 0.0, -1e9, 1e9)
    hot = ThermalReservoir(2.0, 0.0, -1e9, 1e9)
    ratios = []
    while len(ratios) < 10:
        st1, st2 = random_gas_state(rng), random_gas_state(rng)
        if abs(entropy_of(GAS3, st1) - entropy_of(GAS3, st2)) < 1e-3:
            continue
        ratios.append(measure_temperature_ratio(cold, hot, GAS3, st1, st2))
    spread = max(ratios) - min(ratios)
    ratio_err = max(abs(r - 0.25) for r in ratios)

    reference = ThermalReservoir(273.16, 0.0, -1e12, 1e12)
    declared = [150.0, 273.16, 300.476, 1000.0]
    assign_err = 0.0
    for t_true in declared:
        target = ThermalReservoir(t_true, 0.0, -1e12, 1e12)
        assigned = assign_temperature(target, reference, 273.16)
        assign_err = max(assign_err, abs(assigned - t_true) / t_true)
    report("criterion-4 temperature ratio and kelvin assignment",
           spread <= 1e-9 and ratio_err <= 1e-9 and assign_err <= 1e-9,
           f"spread={spread:.3e} assign_rel_err={assign_err:.3e}")


def test_criterion_5_entropy_additivity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        a1, a2 = random_gas_state(rng), random_gas_state(rng)
        b1, b2 = random_gas_state(rng), random_gas_state(rng)
        combined = measure_entropy_difference_composite(
            [(GAS3, a1, a2), (GAS5, b1, b2)], WIDE
        )
        separate = (measure_entropy_difference(GAS3, a1, a2, WIDE)
                    + measure_entropy_difference(GAS5, b1, b2, WIDE))
        worst = max(worst, abs(combined - separate))
    report("criterion-5 additivity of entropy differences (100 pairs)",
           worst <= 1e-12, f"worst={worst:.3e}")


def _grid_oracle(prob, n_grid, refinements=3):
    """Exhaustive scan of total entropy over the feasible extent polytope.

    The bounding box comes from linear programs over {eps : n0 + nu eps >= 0},
    so the scan covers the whole feasible set; infeasible grid points are
    skipped by the non-negativity test.
    """
    from scipy.optimize import linprog

    model = prob.models[0]
    params = prob.params[0]
    n0 = prob.n0[0].amounts
    nu = np.array(prob.network.rows)
    tau = nu.shape[1]

    def axis_interval(j):
        bounds = []
        for sign in (1.0, -1.0):
            c = np.zeros(tau)
            c[j] = sign
            res = linprog(c, A_ub=-nu, b_ub=n0, bounds=[(None, None)] * tau,
                          method="highs")
            bounds.append(res.x[j] if res.status == 0 else sign * -1e3)
        return min(bounds), max(bounds)

    boxes = [axis_interval(j) for j in range(tau)]
    best_eps, best_s = None, -math.inf
    for _ in range(refinements):
        axes = [np.linspace(lo, hi, n_grid) for lo, hi in boxes]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        for eps in pts:
            n = n0 + nu @ eps
            if np.any(n < 0):
                continue
            try:
                s = model.entropy(prob.total_energy, params, Composition(n))
            except DomainError:
                continue
            if s > best_s:
                best_s, best_eps = s, eps
        spans = [(hi - lo) / (n_grid - 1) for lo, hi in boxes]
        boxes = [
            (e - 2 * sp, e + 2 * sp) for e, sp in zip(best_eps, spans)
        ]
    return best_eps, best_s


def test_criterion_6_equilibrium_against_grid_oracle():
    rng = np.random.default_rng(105)
    water_net = ReactionNetwork([[-2.0], [-1.0], [2.0]])
    chain_net = ReactionNetwork([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])

    worst_gap = 0.0
    worst_kkt = 0.0
    for trial in range(6):
        mix = IdealGasMixture([
            Species("a", float(rng.uniform(3, 7))),
            Species("b", float(rng.uniform(3, 7))),
            Species("c", float(rng.uniform(3, 7)), e0=float(rng.uniform(-2.0, 0.5))),
        ])
        prob = EquilibriumProblem(
            (mix,), (Parameters([float(rng.uniform(0.5, 3.0))]),),
            (Composition([2.0, 1.0, 0.0]),),
            float(rng.uniform(6.0, 12.0)), network=water_net,
        )
        sol = stable_equilibrium(prob)
        _, s_grid = _grid_oracle(prob, n_grid=2001)
        worst_gap = max(worst_gap, abs(sol.entropy - s_grid))
        worst_kkt = max(worst_kkt, equilibrium_residual(sol, prob))

    for trial in range(3):
        mix = IdealGasMixture([
            Species("a", 3.0),
            Species("b", float(rng.uniform(3, 6)), e0=float(rng.uniform(-0.5, 0.5))),
            Species("c", float(rng.uniform(3, 6)), e0=float(rng.uniform(-0.5, 0.5))),
        ])
        prob = EquilibriumProblem(
            (mix,), (Parameters([1.0]),), (Composition([1.5, 0.5, 0.5]),),
            float(rng.uniform(4.0, 9.0)), network=chain_net,
        )
        sol = stable_equilibrium(prob)
        _, s_grid = _grid_oracle(prob, n_grid=161)
        worst_gap = max(worst_gap, abs(sol.entropy - s_grid))
        worst_kkt = max(worst_kkt, equilibrium_residual(sol, prob))

    iso = IdealGasMixture([Species("A", 3.0), Species("B", 3.0)])
    iso_prob = EquilibriumProblem(
        (iso,), (Parameters([1.0]),), (Composition([1.0, 0.0]),), 1.5,
        network=ReactionNetwork([[-1.0], [1.0]]),
    )
    iso_eps = stable_equilibrium(iso_prob, start=[0.2]).eps_se.epsilon[0]

    report("criterion-6 equilibrium vs brute-force oracle",
           worst_gap <= 1e-6 and worst_kkt <= 1e-8 and abs(iso_eps - 0.5) <= 1e-10,
           f"worst_S_gap={worst_gap:.3e} worst_kkt={worst_kkt:.3e} "
           f"iso_eps_err={abs(iso_eps - 0.5):.3e}")


def test_criterion_7_gibbs_relations_second_order():
    rng = np.random.default_rng(106)
    closed_ok = 0
    for _ in range(100):
        st0 = state(rng.uniform(0.8, 5.0), rng.uniform(0.5, 3.0), [1.0])
        d_s, d_v = 1e-3, 1e-3
        r1 = gibbs_residual(GAS3, st0, d_s, [d_v])
        r2 = gibbs_residual(GAS3, st0, d_s / 2, [d_v / 2])
        if r2 > 1e-13 and 3.5 <= r1 / r2 <= 4.5:
            closed_ok += 1

    mix = IdealGasMixture([
        Species("H2", 5.0), Species("O2", 5.0), Species("H2O", 6.0, e0=-2.0),
    ])
    open_ok = 0
    for _ in range(100):
        comp = Composition(rng.uniform(0.5, 2.0, size=3))
        ost = OpenState(comp, rng.uniform(8.0, 14.0),
                        Parameters([rng.uniform(0.8, 2.5)]))
        d = 1e-3
        r1 = gibbs_open_residual(None, mix, ost, d, [d, -d, d], [d])
        r2 = gibbs_open_residual(None, mix, ost, d / 2, [d / 2, -d / 2, d / 2], [d / 2])
        if r2 > 1e-13 and 3.5 <= r1 / r2 <= 4.5:
            open_ok += 1

    report("criterion-7 Gibbs relation residuals converge at second order",
           closed_ok == 100 and open_ok == 100,
           f"closed={closed_ok}/100 open={open_ok}/100")


def test_criterion_8_decorrelation_entropy():
    rng = np.random.default_rng(107)
    worst_sigma = math.inf
    worst_product = 0.0
    worst_energy = 0.0
    for _ in range(10000):
        m, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        table = rng.random((m, k))
        table /= table.sum()
        joint = JointState(table, rng.normal(size=m), rng.normal(size=k))
        sigma = decorrelation_entropy(joint)
        worst_sigma = min(worst_sigma, sigma)
        prod = product_state(joint)
        worst_product = max(worst_product, decorrelation_entropy(prod))
        worst_energy = max(worst_energy, abs(joint_energy(joint) - joint_energy(prod)))
    diag = JointState([[0.5, 0.0], [0.0, 0.5]], [0.0, 1.0], [0.0, 1.0])
    diag_err = abs(decorrelation_entropy(diag) - math.log(2.0))
    report("criterion-8 decorrelation entropy (10000 joints)",
           worst_sigma >= 0.0 and worst_product <= 1e-12
           and worst_energy <= 1e-12 and diag_err <= 1e-12,
           f"min_sigma={worst_sigma:.3e} product_sigma={worst_product:.3e} "
           f"energy_gap={worst_energy:.3e}")


def test_criterion_9_monotonicity_and_smoothness_scans():
    mixture = IdealGasMixture([
        Species("a", 3.0), Species("b", 6.0, e0=-0.5, s0=0.2),
    ])
    comp2 = Composition([1.0, 0.5])
    cases = [
        (GAS3, Parameters([1.0]), Composition([1.0]), 0.1, 100.0),
        (GAS5, Parameters([2.0]), Composition([1.0]), 0.1, 100.0),
        (mixture, Parameters([1.5]), comp2, 0.5, 50.0),
        (ReservoirModel(1.3, -5.0, 5.0), Parameters([1.0]), Composition([1.0]), -4.9, 4.9),
    ]
    all_ok = True
    details = []
    for model, params, comp, lo, hi in cases:
        mono = monotonicity_scan(model, params, comp, lo, hi, n_points=1000)
        smooth = smoothness_scan(model, params, comp, lo, hi, n_points=1000)
        all_ok = all_ok and mono.passed and smooth.passed
        details.append(f"{type(model).__name__}:{mono.passed and smooth.passed}")
    report("criterion-9 monotonicity and smoothness scans (1000-point grids)",
           all_ok, " ".join(details))


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    jobs = {
        "demo_gas.scn": ["--measure-entropy", "pair1", "--run-schedule", "sched1",
                         "--decorrelate", "j1"],
        "demo_equilibrium.scn": ["--equilibrate", "prob1"],
        "demo_open.scn": ["--tabulate", "tab1"],
    }
    identical = True
    for name, flags in jobs.items():
        outs = []
        for run in ("x", "y"):
            outdir = tmp_path / f"{name}-{run}"
            code = main(["run", "--scenario", str(SCENARIOS / name),
                         "--out", str(outdir), "--seed", "11", *flags])
            assert code == 0, name
            outs.append({
                p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            })
        identical = identical and outs[0] == outs[1]

    round_trip = True
    for path in sorted(SCENARIOS.glob("*.scn")):
        scn = parse_scenario(path.read_text(encoding="utf-8"))
        ok = (validate_scenario(scn) == []
              and validate_scenario(parse_scenario(serialize_scenario(scn))) == [])
        round_trip = round_trip and ok

    report("criterion-10 CLI determinism and scenario round-trip",
           identical and round_trip,
           f"identical={identical} round_trip={round_trip}")
