import dataclasses
import math

import numpy as np
import pytest

from entrokit import equilibrium
from entrokit.equilibrium import (
    EquilibriumProblem,
    _fd_pressure,
    _package,
    equilibrium_residual,
    gibbs_residual,
    pressure_of,
    solution_at,
    stable_equilibrium,
)
from entrokit.errors import DomainError, Infeasible, NegativeAmount, RangeError
from entrokit.matter_models import (
    KB_SI,
    IdealGasMixture,
    Parameters,
    Species,
    SystemState,
    ThermalReservoir,
    ideal_gas_model,
    state,
    temperature_of,
)
from entrokit.process_engine import DirectContact, Schedule, run_schedule
from entrokit.stoichiometry import Composition, ReactionNetwork

from conftest import ReservoirModel, masked

GAS3 = ideal_gas_model(3.0)

ISO_NET = ReactionNetwork([[-1.0], [1.0]])
WATER_NET = ReactionNetwork([[-2.0], [-1.0], [2.0]])


def iso_problem(energy=1.5):
    mix = IdealGasMixture([Species("A", 3.0), Species("B", 3.0)])
    return EquilibriumProblem(
        (mix,), (Parameters([1.0]),), (Composition([1.0, 0.0]),), energy,
        network=ISO_NET,
    )


def water_problem(energy=8.0, volume=1.0, heat_of_reaction=-2.0):
    mix = IdealGasMixture([
        Species("H2", 5.0), Species("O2", 5.0), Species("H2O", 6.0, e0=heat_of_reaction),
    ])
    return EquilibriumProblem(
        (mix,), (Parameters([volume]),), (Composition([2.0, 1.0, 0.0]),), energy,
        network=WATER_NET,
    )


def grid_max_entropy(prob, n_grid=10001, refinements=3):
    """Brute-force oracle: scan the feasible extent interval, then zoom.  With
    several subsystems the entropy at each extent comes from the library's
    equal-temperature split."""
    model = prob.models[0]
    params = prob.params[0]
    n0 = prob.n0_concat()
    col = prob.network.stoich[:, 0]
    lo, hi = -math.inf, math.inf
    for nk, c in zip(n0, col):
        if c > 0:
            lo = max(lo, -nk / c)
        elif c < 0:
            hi = min(hi, nk / (-c))
    best_eps, best_s = None, -math.inf
    for _ in range(refinements):
        grid = np.linspace(lo, hi, n_grid)
        for eps in grid:
            n = n0 + col * eps
            if np.any(n < 0):
                continue
            try:
                s = (model.entropy(prob.total_energy, params, Composition(n))
                     if len(prob.models) == 1 else solution_at(prob, [eps]).entropy)
            except DomainError:
                continue
            if s > best_s:
                best_s, best_eps = s, eps
        span = (hi - lo) / (n_grid - 1)
        lo, hi = best_eps - 2 * span, best_eps + 2 * span
    return best_eps, best_s


def test_two_subsystems_equalize_temperatures():
    gas5 = ideal_gas_model(5.0)
    prob = EquilibriumProblem(
        (GAS3, gas5),
        (Parameters([1.0]), Parameters([2.0])),
        (Composition([1.0]), Composition([1.0])),
        4.0,
    )
    sol = stable_equilibrium(prob)
    t_a = temperature_of(GAS3, sol.states[0])
    t_b = temperature_of(gas5, sol.states[1])
    assert t_a == pytest.approx(t_b, rel=1e-12)
    assert sum(sol.energies) == pytest.approx(4.0, rel=1e-12)
    # equal temperature forces the split E_a/E_b = dof_a/dof_b here
    assert sol.energies[0] == pytest.approx(4.0 * 3.0 / 8.0, rel=1e-9)


def test_isomerization_symmetry():
    sol = stable_equilibrium(iso_problem())
    assert sol.eps_se.epsilon[0] == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(sol.states[0].comp.amounts, [0.5, 0.5], atol=1e-10)


def test_isomerization_from_asymmetric_starts():
    for start in (0.07, 0.93):
        sol = stable_equilibrium(iso_problem(), start=[start])
        assert sol.eps_se.epsilon[0] == pytest.approx(0.5, abs=1e-10)


def test_unique_maximizer_from_two_random_starts():
    rng = np.random.default_rng(31)
    prob = water_problem()
    sols = [
        stable_equilibrium(prob, start=[rng.uniform(0.05, 0.95)]) for _ in range(2)
    ]
    assert sols[0].eps_se.epsilon[0] == pytest.approx(
        sols[1].eps_se.epsilon[0], abs=1e-8
    )


def test_water_toy_matches_grid_oracle():
    prob = water_problem()
    sol = stable_equilibrium(prob)
    eps_grid, s_grid = grid_max_entropy(prob)
    assert sol.entropy >= s_grid - 1e-12
    assert abs(sol.entropy - s_grid) <= 1e-6
    assert sol.eps_se.epsilon[0] == pytest.approx(eps_grid, abs=1e-4)


def test_randomized_problems_match_grid_oracle():
    rng = np.random.default_rng(32)
    for trial in range(8):
        dofs = rng.uniform(3.0, 7.0, size=3)
        e0 = [0.0, 0.0, float(rng.uniform(-2.0, 0.5))]
        mix = IdealGasMixture([
            Species("a", dofs[0]), Species("b", dofs[1]),
            Species("c", dofs[2], e0=e0[2]),
        ])
        prob = EquilibriumProblem(
            (mix,), (Parameters([float(rng.uniform(0.5, 3.0))]),),
            (Composition([2.0, 1.0, 0.0]),),
            float(rng.uniform(6.0, 12.0)),
            network=WATER_NET,
        )
        sol = stable_equilibrium(prob)
        _, s_grid = grid_max_entropy(prob, n_grid=4001)
        assert abs(sol.entropy - s_grid) <= 1e-6


def test_kkt_residual_small_at_solution():
    prob = water_problem()
    sol = stable_equilibrium(prob)
    assert equilibrium_residual(sol, prob) <= 1e-8


def test_residual_large_away_from_solution():
    prob = water_problem()
    sol = stable_equilibrium(prob)
    perturbed = solution_at(prob, sol.eps_se.epsilon + 0.1)
    assert equilibrium_residual(perturbed, prob) > 1e-3


def test_residual_vacuous_without_reactions():
    prob = EquilibriumProblem((GAS3,), (Parameters([1.0]),), (Composition([1.0]),), 1.5)
    sol = stable_equilibrium(prob)
    assert equilibrium_residual(sol, prob) == 0.0
    assert sol.eps_se.epsilon.shape == (0,)


def wall_problem(e0=-10.0, s0=40.0):
    """Strongly exothermic and entropy-hungry water formation: the residual
    reactant amounts fall below the boundary-detection threshold (at the
    default constants) or just above it."""
    mix = IdealGasMixture([
        Species("H2", 5.0), Species("O2", 5.0), Species("H2O", 6.0, e0=e0, s0=s0),
    ])
    return EquilibriumProblem(
        (mix,), (Parameters([1.0]),), (Composition([2.0, 1.0, 0.0]),), 10.0,
        network=WATER_NET,
    )


def spectator_problem():
    """A -> B beside an empty constituent C no reaction touches; C sits on the
    wall, so the certificate counts it as active."""
    net = ReactionNetwork([[-1.0], [1.0], [0.0]])
    mix = IdealGasMixture([Species("A", 3.0), Species("B", 3.0), Species("C", 3.0)])
    return EquilibriumProblem(
        (mix,), (Parameters([1.0]),), (Composition([1.0, 0.0, 0.0]),), 1.5,
        network=net,
    )


def test_near_complete_reaction_runs_to_the_wall():
    # complete combustion: the optimum lies on the boundary
    prob = wall_problem()
    sol = stable_equilibrium(prob)
    assert sol.boundary
    n = sol.states[0].comp.amounts
    assert min(n[0], n[1]) <= 1e-9
    _, s_grid = grid_max_entropy(prob, n_grid=4001)
    assert sol.entropy >= s_grid - 1e-6
    # backing away from the wall only loses entropy
    eps_b = sol.eps_se.epsilon[0]
    assert solution_at(prob, [eps_b - 1e-6]).entropy <= sol.entropy + 1e-9


def test_spectator_species_at_zero_amount():
    # a constituent no reaction touches stays at zero without poisoning the solve
    sol = stable_equilibrium(spectator_problem())
    assert sol.eps_se.epsilon[0] == pytest.approx(0.5, abs=1e-10)
    assert sol.states[0].comp.amounts[2] == 0.0


def test_infeasible_energy_budget():
    mix = IdealGasMixture([Species("a", 3.0, e0=5.0)])
    prob = EquilibriumProblem(
        (mix,), (Parameters([1.0]),), (Composition([1.0]),), 1.0,
    )
    with pytest.raises(Infeasible):
        stable_equilibrium(prob)


def test_nonconvergence_reports_best_iterate():
    from entrokit.errors import NonConvergence

    prob = water_problem()
    with pytest.raises(NonConvergence) as err:
        stable_equilibrium(prob, start=[0.02], max_iter=1)
    best = err.value.best
    assert best is not None
    assert 0.0 <= best.eps_se.epsilon[0] <= 1.0


def test_mutual_equilibrium_gas_against_reservoir():
    # a gas and a reservoir-like system in mutual stable equilibrium share a
    # temperature
    res_model = ReservoirModel(1.0, -5.0, 5.0)
    st_gas = state(1.5, 1.0, [1.0])  # T = 1
    st_res = state(0.3, 1.0, [1.0])
    assert temperature_of(GAS3, st_gas) == pytest.approx(
        temperature_of(res_model, st_res), rel=1e-9)


def test_gibbs_residual_small_at_small_steps():
    st0 = state(1.5, 1.0, [1.0])
    assert gibbs_residual(GAS3, st0, 1e-4, [0.0]) <= 1e-7
    assert gibbs_residual(GAS3, st0, 0.0, [0.0]) == pytest.approx(0.0, abs=1e-15)


def test_gibbs_residual_second_order():
    rng = np.random.default_rng(33)
    ratios = []
    for _ in range(20):
        st0 = state(rng.uniform(0.8, 4.0), rng.uniform(0.5, 3.0), [1.0])
        d_s, d_v = 1e-3 * rng.uniform(0.5, 1.5), 1e-3 * rng.uniform(0.5, 1.5)
        r1 = gibbs_residual(GAS3, st0, d_s, [d_v])
        r2 = gibbs_residual(GAS3, st0, d_s / 2.0, [d_v / 2.0])
        if r2 > 1e-13:
            ratios.append(r1 / r2)
    assert ratios
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_pressure_ideal_gas_value():
    assert pressure_of(GAS3, state(1.5, 1.0, [1.0])) == pytest.approx(1.0, rel=1e-8)


def test_pressure_inverse_volume_isotherm():
    # closed-form law p = 2E/(dof V) at fixed E (the gas isotherm at fixed n)
    for v in np.linspace(0.5, 5.0, 10):
        p = pressure_of(GAS3, state(1.5, float(v), [1.0]))
        assert p == pytest.approx(1.0 / v, rel=1e-7)


@pytest.mark.parametrize("kb, scale, t_scale", [(1.0, 1.0, 1.0), (KB_SI, 1e20, 300.0)])
def test_pressure_closed_form_matches_the_finite_difference(kb, scale, t_scale):
    # p = T dS/dV from the ds_dv hook against -dE/dV at fixed (S, n), differenced
    # through the inverted relation, over twelve decades of volume
    rng = np.random.default_rng(36)
    for _ in range(40):
        mix = IdealGasMixture([
            Species(f"s{k}", rng.uniform(3.0, 8.0), rng.uniform(-2.0, 0.0) * kb * t_scale,
                    rng.uniform(-1.0, 1.0))
            for k in range(3)
        ], kb=kb)
        comp = Composition(rng.uniform(0.1, 2.0, 3) * scale)
        energy = mix.energy_at_temperature(rng.uniform(0.5, 3.0) * t_scale, None, comp)
        st0 = SystemState(energy, Parameters([10.0 ** rng.uniform(-6.0, 6.0)]), comp)
        assert pressure_of(mix, st0) == pytest.approx(_fd_pressure(mix, st0), rel=1e-7)


def test_pressure_nonnegative():
    rng = np.random.default_rng(34)
    for _ in range(25):
        st0 = state(rng.uniform(0.3, 5.0), rng.uniform(0.3, 5.0), [rng.uniform(0.5, 2.0)])
        assert pressure_of(GAS3, st0) >= 0.0


def test_relaxation_by_direct_contacts_reaches_solver_split():
    # two gases exchanging heat through a reservoir intermediary relax to the
    # equal-temperature split the solver reports
    gas_a, gas_b = GAS3, ideal_gas_model(5.0)
    prob = EquilibriumProblem(
        (gas_a, gas_b), (Parameters([1.0]), Parameters([1.0])),
        (Composition([1.0]), Composition([1.0])), 5.0,
    )
    sol = stable_equilibrium(prob)

    st_a = state(3.5, 1.0, [1.0])   # hot
    st_b = state(1.5, 1.0, [1.0])   # cold
    for _ in range(500):
        t_a, t_b = temperature_of(gas_a, st_a), temperature_of(gas_b, st_b)
        if abs(t_a - t_b) < 1e-12:
            break
        hot, cold, hot_model, cold_model = (
            (st_a, st_b, gas_a, gas_b) if t_a > t_b else (st_b, st_a, gas_b, gas_a)
        )
        t_mid = 0.5 * (t_a + t_b)
        dq = 0.4 * min(1.5 * abs(t_a - t_mid), 2.5 * abs(t_b - t_mid))
        mid_res = ThermalReservoir(t_mid, 0.0, -1e6, 1e6)
        rec_out = run_schedule(hot_model, hot, mid_res, Schedule((DirectContact(-dq),)))
        rec_in = run_schedule(cold_model, cold, mid_res, Schedule((DirectContact(dq),)))
        if t_a > t_b:
            st_a, st_b = rec_out.final, rec_in.final
        else:
            st_b, st_a = rec_out.final, rec_in.final
    assert st_a.energy == pytest.approx(sol.energies[0], abs=1e-6)
    assert st_b.energy == pytest.approx(sol.energies[1], abs=1e-6)


WATER_WITH_INERT_NET = ReactionNetwork([[-2.0], [-1.0], [2.0], [0.0]])


def water_inert_problem(energy=9.0, n_inert=0.7, volume=1.0):
    """The water mixture sharing its energy with an inert gas in a second region."""
    return EquilibriumProblem(
        (water_problem().models[0], IdealGasMixture([Species("Ar", 3.0, e0=0.3)])),
        (Parameters([volume]), Parameters([2.0])),
        (Composition([2.0, 1.0, 0.2]), Composition([n_inert])), energy,
        network=WATER_WITH_INERT_NET,
    )


class CountingMixture(IdealGasMixture):
    """An ideal-gas mixture that counts its dS/dn evaluations."""

    def __init__(self, species):
        super().__init__(species)
        self.ds_dn_calls = 0

    def ds_dn(self, energy, params, comp):
        self.ds_dn_calls += 1
        return super().ds_dn(energy, params, comp)


@pytest.mark.parametrize("make", [water_problem, water_inert_problem])
def test_solver_evaluates_ds_dn_once_per_iteration(make):
    # at most one dS/dn per evaluated point (on water only the candidates are
    # points); the certificate and the answer reuse the evaluated points'
    base = make()
    counting = CountingMixture(base.models[0].species)
    prob = EquilibriumProblem((counting,) + base.models[1:], base.params, base.n0,
                              base.total_energy, network=base.network)
    sol = stable_equilibrium(prob)
    assert sol.iterations >= 3
    assert counting.ds_dn_calls <= sol.iterations + 2


CHAIN_NET = ReactionNetwork([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])


def seeded_problem(kind, seed):
    """A water, chain (A -> B -> C, two extents) or water+inert problem with
    drawn constants."""
    rng = np.random.default_rng(seed)
    if kind == "water":
        return water_problem(float(rng.uniform(6.0, 12.0)), float(rng.uniform(0.5, 3.0)),
                             float(rng.uniform(-3.0, 0.5)))
    if kind == "inert":
        return water_inert_problem(float(rng.uniform(7.0, 12.0)),
                                   float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 3.0)))
    mix = IdealGasMixture([
        Species("a", 3.0),
        Species("b", float(rng.uniform(3, 6)), e0=float(rng.uniform(-0.5, 0.5))),
        Species("c", float(rng.uniform(3, 6)), e0=float(rng.uniform(-0.5, 0.5))),
    ])
    return EquilibriumProblem((mix,), (Parameters([float(rng.uniform(0.5, 3.0))]),),
                              (Composition([1.5, 0.5, 0.5]),), float(rng.uniform(4.0, 9.0)),
                              network=CHAIN_NET)


SOLVED = {
    **{f"{kind}-{seed}": (lambda kind=kind, seed=seed: seeded_problem(kind, seed))
       for kind in ("water", "chain", "inert") for seed in (81, 82, 83)},
    "wall": wall_problem,
    "barrier": spectator_problem,
}


def _bits(value):
    """The exact bits of a solution field, through tuples and dataclasses."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, (float, np.ndarray)):
        arr = np.asarray(value, dtype=float)
        return arr.shape, arr.tobytes()
    return value


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_solver_answer_is_the_solution_at_its_coordinates(name):
    # the solver packages the point it accepted: evaluating the problem afresh
    # at the reported coordinates (one reaction), or at the dual's own amounts
    # (several), gives the same bits
    prob = SOLVED[name]()
    sol = stable_equilibrium(prob)
    if prob.network.rank >= 2:
        amounts = np.concatenate([st.comp.amounts for st in sol.states])
        again = _package(prob, equilibrium._point_at(prob, amounts), sol.iterations)
    else:
        again = solution_at(prob, sol.eps_se.epsilon, sol.iterations)
    for field in dataclasses.fields(sol):
        assert _bits(getattr(again, field.name)) == _bits(getattr(sol, field.name)), field.name


@pytest.mark.parametrize("name", sorted(SOLVED))
def test_solver_evaluates_each_point_once(monkeypatch, name):
    # one energy split per evaluated point, and no point evaluated twice in a
    # row: the certificate and the answer reuse the evaluated points.  Near
    # the wall the bracket can come back to an earlier point; in the interior
    # no point comes back at all.
    points, splits = [], []
    real_point, real_split = equilibrium._point, equilibrium._split

    def point(prob, eps, n):
        points.append(tuple(n))
        return real_point(prob, eps, n)

    def split(prob, comps):
        splits.append(len(comps))
        return real_split(prob, comps)

    monkeypatch.setattr(equilibrium, "_point", point)
    monkeypatch.setattr(equilibrium, "_split", split)
    prob = SOLVED[name]()
    stable_equilibrium(prob)
    if prob.network.rank >= 2:
        # the dual splits the energy at the initial composition, and once more
        # at its answer, the one point it evaluates
        assert len(points) == 1 and len(splits) == 2
        return
    assert points
    assert len(splits) == len(points)
    assert all(a != b for a, b in zip(points, points[1:]))
    if name not in ("wall", "barrier"):
        assert len(set(points)) == len(points)


def test_network_rank_is_computed_once_per_network(monkeypatch):
    calls = []
    real = np.linalg.matrix_rank

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    net = ReactionNetwork(CHAIN_NET.stoich)  # a fresh network: nothing cached yet
    for seed in (81, 82, 83):
        base = seeded_problem("chain", seed)
        stable_equilibrium(EquilibriumProblem(base.models, base.params, base.n0,
                                              base.total_energy, network=net))
    assert len(calls) == 1


def test_redundant_network_reports_minimum_norm_coordinates():
    # the second reaction is the first one doubled: the amounts fix only
    # eps_1 + 2 eps_2, and the report is its minimum-norm solution
    net = ReactionNetwork([[-1.0, -2.0], [1.0, 2.0]])
    assert net.rank == 1
    base = iso_problem()
    prob = EquilibriumProblem(base.models, base.params, base.n0, base.total_energy,
                              network=net)
    sol = solution_at(prob, [0.1, 0.2])
    assert sol.degenerate
    assert sol.eps_se.epsilon == pytest.approx([0.1, 0.2], abs=1e-12)
    assert sol.states[0].comp.amounts == pytest.approx([0.5, 0.5], abs=1e-12)


def test_several_reactions_need_the_log_amounts_hook():
    # the dual has no fallback: a model without the hook names it
    plain = seeded_problem("chain", 81)
    hookless = EquilibriumProblem((masked(plain.models[0], hide=("log_amounts",)),),
                                  plain.params, plain.n0, plain.total_energy,
                                  network=plain.network)
    with pytest.raises(NotImplementedError, match="log_amounts"):
        stable_equilibrium(hookless)
    # one reaction and no reaction still solve without it
    for prob in (seeded_problem("water", 81), iso_problem()):
        hookless = EquilibriumProblem((masked(prob.models[0], hide=("log_amounts",)),),
                                      prob.params, prob.n0, prob.total_energy,
                                      network=prob.network)
        assert stable_equilibrium(hookless).entropy == stable_equilibrium(prob).entropy


def test_start_with_several_reactions_is_refused():
    with pytest.raises(ValueError, match="start"):
        stable_equilibrium(seeded_problem("chain", 81), start=[0.1, 0.1])


@pytest.mark.parametrize("seed", [81, 82, 83])
def test_one_reaction_without_derivative_hooks_takes_finite_differences(monkeypatch, seed):
    calls = []
    real = equilibrium._fd_ds_dn

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equilibrium, "_fd_ds_dn", counted)
    plain = seeded_problem("water", seed)
    sol = stable_equilibrium(plain)
    assert not calls
    # no analytic dS/dn, along a direction or per constituent
    hidden = EquilibriumProblem((masked(plain.models[0], hide=("ds_dn", "ds_dn_along")),),
                                plain.params, plain.n0, plain.total_energy,
                                network=plain.network)
    sol_fd = stable_equilibrium(hidden)
    assert len(calls) >= sol_fd.iterations
    # differenced slopes carry rounding noise: the answer certifies by the
    # solver's final rule
    assert sol_fd.kkt_residual <= 1e-8
    assert sol_fd.eps_se.epsilon == pytest.approx(sol.eps_se.epsilon, abs=1e-8)
    assert sol_fd.entropy == pytest.approx(sol.entropy, abs=1e-12)


@pytest.mark.parametrize("kind", ["water", "inert"])
def test_one_reaction_answers_match_the_grid_oracle(kind):
    for seed in (84, 85, 86):
        prob = seeded_problem(kind, seed)
        sol = stable_equilibrium(prob)
        eps_grid, s_grid = grid_max_entropy(prob, n_grid=201, refinements=8)
        assert sol.entropy >= s_grid - 1e-12
        assert sol.eps_se.epsilon[0] == pytest.approx(eps_grid, abs=1e-6)


def _count_probes(monkeypatch):
    """Lists that fill with the extents of the affinity probes through the
    model's ``ds_dn_along`` hook and of the points the solver evaluates."""
    probes, points = [], []
    real_along, real_point = IdealGasMixture.ds_dn_along, equilibrium._point

    def along(self, energy, params, n0, direction, extent):
        probes.append(extent)
        return real_along(self, energy, params, n0, direction, extent)

    def point(prob, eps, n):
        points.append(float(eps[0]))
        return real_point(prob, eps, n)

    monkeypatch.setattr(IdealGasMixture, "ds_dn_along", along)
    monkeypatch.setattr(equilibrium, "_point", point)
    return probes, points


def test_one_reaction_never_enters_the_dual(monkeypatch):
    # one region probes through the hook, two regions evaluate points; every
    # probe counts as an iteration
    def dual(*args):
        raise AssertionError("one reaction reached the dual")

    monkeypatch.setattr(equilibrium, "_dual", dual)
    probes, points = _count_probes(monkeypatch)
    for kind in ("water", "inert"):
        for seed in range(81, 91):
            probes.clear()
            points.clear()
            sol = stable_equilibrium(seeded_problem(kind, seed))
            counted = probes if kind == "water" else points
            assert len(counted) == sol.iterations <= 16
            if kind == "inert":
                assert not probes


@pytest.mark.parametrize("name", ["water-81", "water-82", "water-83", "wall", "barrier"])
def test_one_region_solve_evaluates_at_most_two_points(monkeypatch, name):
    # the probes read g alone, and a candidate is certified from its probe's
    # g and its amounts: only the answer becomes a point, and at most two
    # candidates are certified
    built, certified = [], []
    real_point, real_kkt = equilibrium._point, equilibrium._kkt

    def point(prob, eps, n):
        built.append(tuple(n))
        return real_point(prob, eps, n)

    def kkt(nu, n, grad, wall):
        certified.append(tuple(n))
        return real_kkt(nu, n, grad, wall)

    monkeypatch.setattr(equilibrium, "_point", point)
    monkeypatch.setattr(equilibrium, "_kkt", kkt)
    sol = stable_equilibrium(SOLVED[name]())
    assert len(built) == 1 <= sol.iterations
    assert 1 <= len(certified) <= 2


@pytest.mark.parametrize("name", ["water-81", "inert-82", "wall", "barrier"])
def test_one_reaction_certifies_its_answer_at_most_twice(monkeypatch, name):
    # the affinity root ranks its distinct candidates by the certificate, and
    # the answer carries the winner's
    calls, results = [], []
    real = equilibrium._kkt

    def counted(nu, n, grad, wall):
        calls.append(tuple(n))
        results.append(real(nu, n, grad, wall))
        return results[-1]

    monkeypatch.setattr(equilibrium, "_kkt", counted)
    sol = stable_equilibrium(SOLVED[name]())
    assert 1 <= len(calls) == len(set(calls)) <= 2
    assert (sol.kkt_residual, sol.active) in results


@pytest.mark.parametrize("name", ["water-81", "water-82", "water-83", "inert-81", "inert-82"])
def test_an_interior_answer_is_certified_by_its_own_affinity(name):
    # no constituent is exhausted, so the KKT residual is |g| with
    # g = nu . dS/dn at the answer's split: the bits of the generic probe
    prob = SOLVED[name]()
    sol = stable_equilibrium(prob)
    assert not sol.active
    ds_dn = np.concatenate([m.ds_dn(st.energy, st.params, st.comp)
                            for m, st in zip(prob.models, sol.states)])
    assert sol.kkt_residual == abs(float(prob.network.stoich[:, 0] @ ds_dn)) <= 1e-10


@pytest.mark.parametrize("e0", [-4.0, -6.0, -8.0, -12.0])
def test_entropy_hungry_water_converges_next_to_the_wall(e0):
    # the optimum leaves under 1e-6 of O2, just above the active-set threshold
    prob = wall_problem(e0, s0=20.0)
    sol = stable_equilibrium(prob)
    assert sol.kkt_residual <= 1e-8
    assert 1e-9 < sol.states[0].comp.amounts[1] < 1e-6
    _, s_grid = grid_max_entropy(prob, n_grid=2001)
    assert sol.entropy >= s_grid - 1e-12


def test_wall_solve_takes_few_probes(monkeypatch):
    probes, _ = _count_probes(monkeypatch)
    sol = stable_equilibrium(wall_problem())
    assert sol.boundary
    assert len(probes) == len(set(probes)) == sol.iterations <= 40


def test_redundant_network_solves_on_an_independent_reaction():
    # A <-> B twice over: solved as the one reaction, reported on both
    net = ReactionNetwork([[-1.0, -2.0], [1.0, 2.0]])
    base = iso_problem()
    prob = EquilibriumProblem(base.models, base.params, base.n0, base.total_energy,
                              network=net)
    one = stable_equilibrium(base)
    for start in (None, [0.05, 0.1]):
        sol = stable_equilibrium(prob, start=start)
        assert sol.degenerate
        assert sol.kkt_residual <= 1e-10
        assert max(abs(x - y) for x, y in zip(sol.states[0].comp.amounts,
                                              one.states[0].comp.amounts)) <= 1e-12
        # minimum-norm coordinates of eps_1 + 2 eps_2 = 0.5
        assert sol.eps_se.epsilon == pytest.approx([0.1, 0.2], abs=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_reaction_with_an_unbounded_extent_interval(sign):
    # a reaction that only creates A (or, reversed, only destroys it) can run
    # without bound; the entropy at fixed energy still peaks at finite extent
    mix = IdealGasMixture([Species("A", 3.0, s0=2.0), Species("B", 5.0)])
    prob = EquilibriumProblem((mix,), (Parameters([2.0]),), (Composition([1.0, 0.5]),), 3.0,
                              network=ReactionNetwork([[sign], [0.0]]))
    sol = stable_equilibrium(prob)
    assert sol.kkt_residual <= 1e-10
    eps = sol.eps_se.epsilon[0]
    assert sign * eps > 0.5
    for step in (-1e-4, 1e-4):
        assert solution_at(prob, [eps + step]).entropy < sol.entropy


@pytest.mark.parametrize("s0", [15.0, 30.0])
def test_one_reaction_bracket_past_the_energy_floor(s0):
    # endothermic water at low energy: extents past 0.9 leave no thermal
    # energy, and the first bracket probe (0.9375) lands there; such a point
    # lies past the optimum and bounds the bracket
    base = wall_problem(1.0, s0)
    prob = EquilibriumProblem(base.models, base.params, base.n0, 1.8, network=base.network)
    with pytest.raises(DomainError):
        solution_at(prob, [0.9375])
    sol = stable_equilibrium(prob)
    assert sol.kkt_residual <= 1e-10
    eps_grid, s_grid = grid_max_entropy(prob)
    assert sol.entropy >= s_grid - 1e-12
    assert sol.eps_se.epsilon[0] == pytest.approx(eps_grid, abs=1e-6)


# several independent reactions: the element-potential dual


def deep_chain_problems(count):
    """The first ``count`` problems of the deep-well A -> B -> C draw: formation
    energies of tens of kT put the optimum near a wall."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        e0_b, e0_c = rng.uniform(-20.0, 0.0, 2)
        s0 = rng.uniform(0.0, 30.0, 3)
        dof = rng.uniform(3.0, 6.0, 3)
        energy, volume = rng.uniform(2.0, 12.0), rng.uniform(0.3, 3.0)
        mix = IdealGasMixture([Species("A", dof[0], 0.0, s0[0]),
                               Species("B", dof[1], e0_b, s0[1]),
                               Species("C", dof[2], e0_c, s0[2])])
        yield EquilibriumProblem((mix,), (Parameters([volume]),),
                                 (Composition([1.5, 0.5, 0.5]),), energy, network=CHAIN_NET)


def nelder_mead_max_entropy(prob, starts):
    """Independent oracle: the best entropy a multi-start Nelder-Mead search
    over the reaction coordinates finds, inadmissible points counting as -inf."""
    from scipy.optimize import minimize

    n0, nu = prob.n0_concat(), prob.network.stoich

    def neg_entropy(eps):
        try:
            return -equilibrium._point(prob, eps, (n0 + nu @ eps).tolist()).entropy
        except (DomainError, RangeError, NegativeAmount):
            return math.inf

    best = -math.inf
    for x0 in starts:
        res = minimize(neg_entropy, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 1000})
        best = max(best, -res.fun)
    return best


CHAIN_STARTS = [(0.0, 0.0), (1.2, 1.4), (-0.8, -0.4)]


def test_deep_chain_problems_solve_and_match_the_oracle():
    for prob in deep_chain_problems(30):
        sol = stable_equilibrium(prob)
        assert sol.kkt_residual <= 1e-10
        oracle = nelder_mead_max_entropy(prob, CHAIN_STARTS)
        assert sol.entropy >= oracle - 1e-12 * abs(sol.entropy)


def test_reaction_beside_a_semipermeable_wall():
    # region 1 holds A and B, region 2 holds A only; one column moves A
    # through the wall, the other turns A into B inside region 1
    a = Species("A", 3.0, 0.0, 1.0)
    inside = IdealGasMixture([a, Species("B", 5.0, -1.5, 2.0)])
    outside = IdealGasMixture([a])
    net = ReactionNetwork([[-1.0, -1.0], [0.0, 1.0], [1.0, 0.0]])
    prob = EquilibriumProblem((inside, outside), (Parameters([1.0]), Parameters([2.5])),
                              (Composition([1.0, 0.2]), Composition([0.3])), 7.0,
                              network=net)
    sol = stable_equilibrium(prob)
    assert sol.kkt_residual <= 1e-10
    # A has one chemical potential on both sides of the wall
    mu = sol.chemical_potentials
    assert mu[0] == pytest.approx(mu[2], rel=1e-12, abs=1e-12)
    assert sol.entropy >= nelder_mead_max_entropy(
        prob, [(0.0, 0.0), (-0.2, 0.5), (0.5, 0.2)]) - 1e-12 * abs(sol.entropy)


def test_untouched_constituents_keep_their_amounts_exactly():
    # A -> B -> C beside an empty D and, in a second region, an inert gas that
    # no reaction touches: both stay outside the dual, and the inert's energy
    # at T enters the energy balance
    base = seeded_problem("chain", 81)
    mix = IdealGasMixture(base.models[0].species + (Species("D", 3.0),))
    inert = IdealGasMixture([Species("Ar", 3.0, e0=0.3)])
    net = ReactionNetwork(np.vstack([CHAIN_NET.stoich, np.zeros((2, 2))]))
    n_inert = 0.7123456789
    prob = EquilibriumProblem((mix, inert), (base.params[0], Parameters([2.0])),
                              (Composition([1.5, 0.5, 0.5, 0.0]), Composition([n_inert])),
                              base.total_energy + 2.0, network=net)
    sol = stable_equilibrium(prob)
    assert sol.kkt_residual <= 1e-10
    assert sol.states[0].comp.amounts[3] == 0.0
    assert sol.states[1].comp.amounts[0] == n_inert
    assert sum(sol.energies) == pytest.approx(prob.total_energy, rel=1e-12)
    assert temperature_of(inert, sol.states[1]) == pytest.approx(sol.temperature, rel=1e-12)


def test_partly_pinned_network():
    # A -> B and C -> D with neither C nor D present: the second reaction
    # cannot run, and the first solves as it would alone
    mix = IdealGasMixture([Species("A", 3.0), Species("B", 5.0, e0=-1.0),
                           Species("C", 3.0), Species("D", 4.0)])
    n0 = Composition([1.0, 0.2, 0.0, 0.0])
    both = ReactionNetwork([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    alone = ReactionNetwork([[-1.0], [1.0], [0.0], [0.0]])
    sols = [stable_equilibrium(EquilibriumProblem((mix,), (Parameters([1.5]),), (n0,), 4.0,
                                                  network=net))
            for net in (both, alone)]
    assert sols[0].kkt_residual <= 1e-10
    amounts = [s.states[0].comp.amounts for s in sols]
    assert amounts[0][2] == amounts[0][3] == 0.0
    assert amounts[0] == pytest.approx(amounts[1], rel=1e-12, abs=1e-15)
    assert sols[0].entropy == pytest.approx(sols[1].entropy, rel=1e-13)


def test_energy_below_every_reachable_ground_bound_is_infeasible():
    mix = IdealGasMixture([Species("A", 3.0, e0=5.0), Species("B", 3.0, e0=6.0),
                           Species("C", 3.0, e0=7.0)])
    prob = EquilibriumProblem((mix,), (Parameters([1.0]),), (Composition([1.5, 0.5, 0.5]),),
                              10.0, network=CHAIN_NET)
    with pytest.raises(Infeasible):
        stable_equilibrium(prob)


def test_active_set_certified_by_nonnegative_multipliers():
    # constituents 1 and 2 can never form (the second reaction needs each to
    # make the other); the multipliers (0, g) certify the dual's answer
    # exactly, while clipping a minimum-norm solve left a residual of 0.542
    mix = IdealGasMixture([Species(f"S{k}", 3.0 + 0.5 * k, -0.5 * k, 0.1 * k) for k in range(5)])
    net = ReactionNetwork([[1.0, -2.0], [0.0, 1.0], [0.0, -1.0], [-2.0, 0.0], [-2.0, 2.0]])
    prob = EquilibriumProblem((mix,), (Parameters([1.0]),),
                              (Composition([1.197, 0.0, 0.0, 0.234, 0.0]),), 5.0, network=net)
    sol = stable_equilibrium(prob)
    assert sol.active == (1, 2)
    assert sol.kkt_residual <= 1e-10


def test_nnls_matches_scipy_and_never_certifies_worse_than_clipping():
    # small systems of stoichiometric and of normal coefficients; the clipped
    # minimum-norm solve is one feasible point of the Euclidean residual that
    # nonnegative least squares minimizes
    from scipy.optimize import nnls

    rng = np.random.default_rng(95)
    for trial in range(200):
        shape = tuple(rng.integers(1, 5, 2))
        a = (rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], shape) if trial % 2
             else rng.normal(size=shape))
        b = rng.normal(size=shape[0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        x = equilibrium._nnls(a, b)
        x_ref, _ = nnls(a, b)
        clipped = np.maximum(np.linalg.lstsq(a, b, rcond=None)[0], 0.0)
        tol = 1e-10 * (1.0 + np.linalg.norm(b) + np.abs(a).sum() * np.abs(x_ref).sum())
        assert np.all(x >= 0.0)
        residual = np.linalg.norm(a @ x - b)
        assert abs(residual - np.linalg.norm(a @ x_ref - b)) <= tol
        assert residual <= np.linalg.norm(a @ clipped - b) + tol
