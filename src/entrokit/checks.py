"""Machine-checkable invariants: monotonicity and smoothness scans, schedule
fuzzers, and the bound/additivity/nondecrease checks built on them.

Every check returns a CheckResult so the CLI can print one pass/fail line per
invariant; the test suite asserts on the same results.  The checks run in
plain floats, and the samplers draw from a ``random.Random``.
"""

from __future__ import annotations

import math
import random
from itertools import pairwise, product

from .correlations import _energy, _entropies, _is_distribution, _marginals, _product
from .errors import DomainError, FrozenRecord, InadmissibleStep, RangeError, RangeExceeded
from .matter_models import (
    MatterModel,
    Parameters,
    SystemState,
    ThermalReservoir,
    energy_of,
    entropy_of,
    solve_energy_at_temperature,
    temperature_of,
)
from .process_engine import (
    DirectContact,
    Isentropic,
    IsothermalContact,
    Schedule,
    _volume_on_isentrope,
    measure_entropy_difference,
    measure_entropy_difference_composite,
    reversible_standard_process,
    run_schedule,
)


class CheckResult(FrozenRecord):
    __slots__ = ("name", "passed", "n_trials", "worst", "detail")

    def __init__(self, name: str, passed: bool, n_trials: int, worst: float,
                 detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "n_trials", n_trials)
        object.__setattr__(self, "worst", worst)
        object.__setattr__(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: n={self.n_trials} worst={self.worst:.3e} {self.detail}"


def _log_grid(floor: float, e_lo: float, e_hi: float, n_points: int) -> list:
    """``n_points`` energies from e_lo to e_hi, at equal ratios of their
    distances from ``floor``."""
    lo, ratio = e_lo - floor, ((e_hi - floor) / (e_lo - floor)) ** (1.0 / (n_points - 1))
    return [floor + lo * ratio ** i for i in range(n_points - 1)] + [e_hi]


def monotonicity_scan(model: MatterModel, params: Parameters, comp,
                      e_lo: float, e_hi: float, n_points: int = 1000) -> CheckResult:
    """Strict increase of S(E) at fixed parameters over a log-spaced grid."""
    grid = _log_grid(model.energy_floor(params, comp), e_lo, e_hi, n_points)
    values = [model.entropy(e, params, comp) for e in grid]
    worst = min(y - x for x, y in pairwise(values))
    return CheckResult("entropy-monotone-in-energy", worst > 0.0, n_points, worst)


def smoothness_scan(model: MatterModel, params: Parameters, comp,
                    e_lo: float, e_hi: float, n_points: int = 1000,
                    ratio_band: tuple = (3.2, 4.8)) -> CheckResult:
    """Differentiability probe: successive central differences of dS/dE must
    converge at second order (Richardson ratio near 4).

    Relations with vanishing curvature (a reservoir's linear S(E)) produce
    difference gaps at rounding level; those count as smooth.
    """
    floor = model.energy_floor(params, comp)
    grid = _log_grid(floor, e_lo, e_hi, n_points)
    worst = 4.0
    ok = True
    for e in grid:
        h = 1e-3 * max(1.0, abs(e))
        if e - h <= floor:
            continue
        estimates = []
        for step in (h, h / 2.0, h / 4.0):
            s_hi = model.entropy(e + step, params, comp)
            s_lo = model.entropy(e - step, params, comp)
            estimates.append((s_hi - s_lo) / (2.0 * step))
        d1 = estimates[1] - estimates[0]
        d2 = estimates[2] - estimates[1]
        scale = max(abs(estimates[0]), 1e-30)
        if abs(d1) < 1e-12 * scale and abs(d2) < 1e-12 * scale:
            continue  # numerically linear here
        if abs(d2) < 1e-300:
            continue
        ratio = d1 / d2
        if abs(ratio - 4.0) > abs(worst - 4.0):
            worst = ratio
        if not ratio_band[0] <= ratio <= ratio_band[1]:
            ok = False
    return CheckResult("relation-smooth-richardson", ok, n_points, worst)


def bracket_single_valued(model: MatterModel, params: Parameters, comp,
                          e_lo: float, e_hi: float, n_targets: int = 50,
                          seed: int = 0) -> CheckResult:
    """Uniqueness guard for the inverse relation: S is monotone across any
    bracket the root-finder would use, so a bracket never holds two roots."""
    rng = random.Random(seed)
    worst = math.inf
    for _ in range(n_targets):
        a, b = sorted((rng.uniform(e_lo, e_hi), rng.uniform(e_lo, e_hi)))
        if b - a < 1e-9:
            continue
        grid = [a + (b - a) * i / 32 for i in range(32)] + [b]
        values = [model.entropy(e, params, comp) for e in grid]
        worst = min(worst, min(y - x for x, y in pairwise(values)))
    if not math.isfinite(worst):
        worst = 1.0
    return CheckResult("inverse-single-valued", worst > 0.0, n_targets, worst)


def fuzz_standard_processes(model: MatterModel, st0: SystemState,
                            reservoir: ThermalReservoir, rng: random.Random,
                            n: int = 1000, reversible_share: float = 0.3):
    """Generate and run ``n`` admissible standard weight processes from st0.

    Yields (record, s_initial, s_final) triples.  A share of the schedules is
    the reversible three-leg construction to a random target; the rest are
    random admissible mixes of the three primitives.
    """
    out, s0 = [], None
    attempts = 0
    while len(out) < n and attempts < 20 * n:
        attempts += 1
        try:
            if rng.random() < reversible_share:
                target = SystemState(
                    st0.energy * rng.uniform(0.6, 1.7),
                    st0.params.with_volume(st0.params.volume * rng.uniform(0.5, 2.0)),
                    st0.comp,
                )
                record = reversible_standard_process(model, st0, target, reservoir)
            else:
                sched = _random_schedule(model, st0, reservoir, rng)
                record = run_schedule(model, st0, reservoir, sched)
        except (InadmissibleStep, DomainError, RangeError, RangeExceeded):
            continue
        if s0 is None:  # every record starts at st0
            s0 = entropy_of(model, st0)
        out.append((record, s0, entropy_of(model, record.final)))
    return out


def _random_schedule(model, st0, reservoir, rng) -> Schedule:
    steps = []
    st = st0
    s_here = entropy_of(model, st)
    t_res = reservoir.temperature
    for _ in range(rng.randrange(1, 5)):
        kind = rng.random()
        if kind < 0.45:
            params = st.params.with_volume(st.params.volume * math.exp(rng.uniform(-1.0, 1.0)))
            steps.append(Isentropic(params))
            energy = energy_of(model, s_here, params, st.comp, tol=1e-12)
            st = SystemState(energy, params, st.comp)
        elif kind < 0.8:
            # direct contact strictly toward the reservoir temperature
            e_res_t = solve_energy_at_temperature(model, t_res, st.params, st.comp)
            q_star = e_res_t - st.energy
            if abs(q_star) < 1e-9 * (st.energy - model.energy_floor(st.params, st.comp)):
                continue
            heat = q_star * rng.uniform(0.1, 0.95)
            steps.append(DirectContact(heat))
            st = SystemState(st.energy + heat, st.params, st.comp)
            s_here = entropy_of(model, st)
        else:
            # bring the system to T_R isentropically, then slide along the isotherm
            params_iso = _volume_on_isentrope(model, s_here, t_res, st)
            steps.append(Isentropic(params_iso))
            params_end = params_iso.with_volume(params_iso.volume * math.exp(rng.uniform(-0.7, 0.7)))
            steps.append(IsothermalContact(target_params=params_end))
            energy = solve_energy_at_temperature(model, t_res, params_end, st.comp)
            st = SystemState(energy, params_end, st.comp)
            s_here = entropy_of(model, st)
    if not steps:
        steps.append(Isentropic(st0.params))
    return Schedule(tuple(steps))


def fuzz_weight_processes(model: MatterModel, st0: SystemState,
                          reservoir: ThermalReservoir, rng: random.Random,
                          n: int = 10000):
    """Generate ``n`` weight processes for the system alone (zero net reservoir
    charge): pure isentropic chains, and dissipative round trips that borrow
    heat from the reservoir and return it at a different temperature."""
    out, s0 = [], None
    attempts = 0
    while len(out) < n and attempts < 20 * n:
        attempts += 1
        try:
            if rng.random() < 0.5:
                sched = _isentropic_chain(st0, rng)
            else:
                if s0 is None:
                    s0 = entropy_of(model, st0)
                sched = _dissipation_loop(model, st0, s0, reservoir, rng)
            record = run_schedule(model, st0, reservoir, sched)
        except (InadmissibleStep, DomainError, RangeError, RangeExceeded):
            continue
        if abs(record.d_e_res) > 1e-12 * max(1.0, abs(st0.energy)):
            continue
        out.append(record)
    return out


def _isentropic_chain(st0, rng) -> Schedule:
    steps = []
    v = st0.params.volume
    for _ in range(rng.randrange(1, 4)):
        v = v * math.exp(rng.uniform(-1.0, 1.0))
        steps.append(Isentropic(st0.params.with_volume(v)))
    return Schedule(tuple(steps))


def _dissipation_loop(model, st0, s0, reservoir, rng) -> Schedule:
    """Extract heat hot, reinject it cold, from st0 of entropy s0: net zero
    reservoir charge, sigma > 0."""
    t_res = reservoir.temperature
    # leg 1: compress until hot
    t_hot = t_res * rng.uniform(1.3, 1.6)
    params_hot = _volume_on_isentrope(model, s0, t_hot, st0)
    e_hot = solve_energy_at_temperature(model, t_hot, params_hot, st0.comp)
    e_res_level = solve_energy_at_temperature(model, t_res, params_hot, st0.comp)
    q = (e_hot - e_res_level) * rng.uniform(0.2, 0.9)
    if q <= 0.0:
        raise InadmissibleStep("no extractable heat")
    steps = [Isentropic(params_hot), DirectContact(-q)]
    # leg 2: expand until cold, give the heat back
    st_mid = SystemState(e_hot - q, params_hot, st0.comp)
    s_mid = entropy_of(model, st_mid)
    t_cold = t_res * rng.uniform(0.3, 0.7)
    params_cold = _volume_on_isentrope(model, s_mid, t_cold, st_mid)
    steps.append(Isentropic(params_cold))
    steps.append(DirectContact(q))
    # optional cosmetic finish
    if rng.random() < 0.5:
        steps.append(Isentropic(st0.params))
    return Schedule(tuple(steps))


def theorem_lower_bound_check(samples, t_res: float,
                              slack: float = 1e-12) -> CheckResult:
    """Reservoir energy bound: dE_res >= -T_R (S2 - S1), equality exactly for
    the reversible processes; the gap is T_R sigma, so tolerances scale with T_R."""
    worst_gap = math.inf
    ok = True
    mismatches = 0
    for record, s1, s2 in samples:
        gap = record.d_e_res - (-t_res * (s2 - s1))
        worst_gap = min(worst_gap, gap)
        if gap < -slack * t_res:
            ok = False
        at_bound = gap <= 1e-9 * t_res
        rev = record.sigma_gen <= 1e-9
        if at_bound != rev:
            mismatches += 1
            ok = False
    return CheckResult(
        "reservoir-energy-lower-bound", ok, len(samples),
        worst_gap if samples else 0.0,
        detail=f"equality/reversibility mismatches={mismatches}",
    )


def nondecrease_check(records, model: MatterModel) -> CheckResult:
    """Entropy nondecrease for weight processes, with the zero-production
    cases exactly the zero-entropy-change cases."""
    worst = math.inf
    ok = True
    mismatches = 0
    for record in records:
        delta_s = entropy_of(model, record.final) - entropy_of(model, record.initial)
        worst = min(worst, delta_s)
        if delta_s < -1e-12:
            ok = False
        if (record.sigma_gen <= 1e-9) != (abs(delta_s) <= 1e-9):
            mismatches += 1
            ok = False
    return CheckResult(
        "entropy-nondecrease", ok, len(records), worst if records else 0.0,
        detail=f"reversibility mismatches={mismatches}",
    )


def pmm2_exhaustive_check(model: MatterModel, st0: SystemState,
                          reservoir: ThermalReservoir) -> CheckResult:
    """No weight process returning the parameters to their initial values can
    extract positive work from a stable equilibrium state.

    Exhausts schedules up to three primitives over a parameter grid, keeps
    those with zero net reservoir charge and restored parameters, and checks
    the extracted work.  Its fixed heats and tolerances are fractions of the
    state's thermal energy N T, so the schedules do not depend on its scale.
    """
    t_res = reservoir.temperature
    thermal = st0.comp.total * temperature_of(model, st0)
    v0 = st0.params.volume
    volumes = [v0 * f for f in (0.5, 0.8, 1.25, 2.0)]
    e_level = solve_energy_at_temperature(model, t_res, st0.params, st0.comp)
    q_star = e_level - st0.energy
    heats = [q_star * f for f in (0.25, 0.5, 0.9)] + [-0.1 * thermal, 0.1 * thermal]

    atoms: list = [Isentropic(st0.params.with_volume(v)) for v in volumes]
    atoms += [DirectContact(q) for q in heats if abs(q) > 1e-12 * thermal]
    closer = Isentropic(st0.params)

    n_checked = 0
    worst = -math.inf
    ok = True
    for depth in (1, 2):
        for combo in product(atoms, repeat=depth):
            sched = Schedule(tuple(combo) + (closer,))
            try:
                record = run_schedule(model, st0, reservoir, sched)
            except (InadmissibleStep, DomainError, RangeError, RangeExceeded):
                continue
            if abs(record.d_e_res) > 1e-12 * thermal:
                continue
            n_checked += 1
            worst = max(worst, record.work)
            if record.work > 1e-12 * thermal:
                ok = False
    if worst == -math.inf:
        worst = 0.0
    return CheckResult("no-pmm2-work-extraction", ok, n_checked, worst)


def additivity_check(model_a, model_b, pairs, reservoir) -> CheckResult:
    """Composite entropy difference equals the sum of subsystem measurements."""
    worst = 0.0
    ok = True
    for (a1, a2), (b1, b2) in pairs:
        combined = measure_entropy_difference_composite(
            [(model_a, a1, a2), (model_b, b1, b2)], reservoir
        )
        separate = (measure_entropy_difference(model_a, a1, a2, reservoir)
                    + measure_entropy_difference(model_b, b1, b2, reservoir))
        gap = abs(combined - separate)
        worst = max(worst, gap)
        if gap > 1e-12 * max(1.0, abs(separate)):
            ok = False
    return CheckResult("entropy-additivity", ok, len(pairs), worst)


def decorrelation_check(rng: random.Random, n: int = 10000,
                        max_dim: int = 4) -> CheckResult:
    """sigma >= 0 with equality exactly for product tables; energy depends
    only on the marginals.  Runs ``correlations``' kernels on each drawn
    table and its product of marginals, building no JointState."""
    worst_sigma, worst_energy, ok = math.inf, 0.0, True
    for _ in range(n):
        m, k = rng.randrange(2, max_dim + 1), rng.randrange(2, max_dim + 1)
        cells = [rng.random() for _ in range(m * k)]
        e_a = [rng.gauss(0.0, 1.0) for _ in range(m)]
        e_b = [rng.gauss(0.0, 1.0) for _ in range(k)]
        total = sum(cells)
        cells = [x / total for x in cells]
        p = _marginals([cells[i:i + k] for i in range(0, m * k, k)])
        outer = _product(p)
        q, outer_cells = _marginals(outer), [x for row in outer for x in row]
        sigma, e_joint = _entropies(cells, p)[3], _energy(p, e_a, e_b)
        gap = abs(e_joint - _energy(q, e_a, e_b))
        worst_sigma, worst_energy = min(worst_sigma, sigma), max(worst_energy, gap)
        ok = ok and (_is_distribution(cells) and _is_distribution(outer_cells)
                     and sigma >= 0.0 and _entropies(outer_cells, q)[3] <= 1e-12
                     and gap <= 1e-12 * max(1.0, abs(e_joint)))
    return CheckResult("decorrelation-entropy", ok, n, worst_sigma,
                       detail=f"worst marginal-energy gap={worst_energy:.2e}")
