import math
import struct
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrokit import stoichiometry
from entrokit.errors import NotExpressible
from entrokit.matter_models import (
    IdealGasMixture,
    Parameters,
    Species,
    entropy_of,
    ideal_gas_model,
    state,
    temperature_of,
)
from entrokit.open_systems import (
    RECORDS,
    UNIT,
    OpenGrid,
    OpenState,
    ReferenceEnvironment,
    _open_energy_function,
    _state_at,
    gibbs_open_residual,
    open_energy_entropy,
    open_entropy_direct,
    open_fundamental_relation,
    total_potentials,
)
from entrokit.process_engine import measure_entropy_difference
from entrokit.scenario import build_reference_env, load_scenario
from entrokit.stoichiometry import RCOND, Composition, ReactionNetwork

from conftest import masked

WATER_NET = ReactionNetwork([[-2.0], [-1.0], [2.0]])
NAMES = ("H2", "O2", "H2O")


def water_env(convention="chemical", t0=1.0, p0=1.0):
    sp_h2 = IdealGasMixture([Species("H2", 5.0)])
    sp_o2 = IdealGasMixture([Species("O2", 5.0)])
    maker = (ReferenceEnvironment.chemical_convention if convention == "chemical"
             else ReferenceEnvironment.natural_convention)
    return maker(NAMES, (0, 1), WATER_NET, (sp_h2, sp_o2), t0, p0)


def water_mix(e0_water=-2.0):
    return IdealGasMixture([
        Species("H2", 5.0), Species("O2", 5.0), Species("H2O", 6.0, e0=e0_water),
    ])


def single_species_env(convention="chemical"):
    no_reactions = ReactionNetwork(np.zeros((1, 0)))
    gas = ideal_gas_model(3.0)
    maker = (ReferenceEnvironment.chemical_convention if convention == "chemical"
             else ReferenceEnvironment.natural_convention)
    return maker(("X",), (0,), no_reactions, (gas,), 1.0, 1.0)


def assigned_values(env, comp):
    """The assigned (E0, S0) of a composition, w . e0_assigned and
    w . s0_assigned for its elemental content w, from the gauge: the
    assigned values less the physical ones of the elemental boxes."""
    w, _ = env.decompose(comp)
    e_phys = sum(wi * e for wi, (e, _) in zip(w, env.physical_references))
    s_phys = sum(wi * s for wi, (_, s) in zip(w, env.physical_references))
    g_e, g_s = env.gauge(comp)
    return g_e + e_phys, g_s + s_phys


def test_chemical_convention_gauge_holds_the_assigned_values():
    env = water_env()
    # E0_i + p0 V0_i = 0 and S0_i = 0, so any composition maps to
    # (-p0 sum w_i V0_i, 0)
    comp = Composition([0.0, 0.0, 2.0])
    w, _ = env.decompose(comp)
    e0, s0 = assigned_values(env, comp)
    v0 = env.species_models[0].volume_at_pressure(env.t0, env.p0, Composition([1.0]))
    assert np.dot(w, env.s0_assigned) == 0.0
    assert s0 == pytest.approx(0.0, abs=1e-12)
    assert np.dot(w, env.e0_assigned) == pytest.approx(-1.0 * (2.0 * v0 + 1.0 * v0), rel=1e-12)
    assert e0 == pytest.approx(np.dot(w, env.e0_assigned), rel=1e-12)


def test_gauge_of_the_empty_composition_is_zero():
    env = water_env()
    comp = Composition([0.0, 0.0, 0.0])
    w, _ = env.decompose(comp)
    assert (np.dot(w, env.e0_assigned), np.dot(w, env.s0_assigned)) == (0.0, 0.0)
    assert env.gauge(comp) == (0.0, 0.0)


@pytest.mark.parametrize("convention", ["chemical", "natural"])
def test_gauge_scales_linearly(convention):
    env = water_env(convention)
    comp = Composition([1.0, 0.5, 1.0])
    double = Composition([2.0 * x for x in comp.amounts])
    for one, two in ((assigned_values(env, comp), assigned_values(env, double)),
                     (env.gauge(comp), env.gauge(double))):
        assert two[0] == pytest.approx(2.0 * one[0], rel=1e-12, abs=1e-12)
        assert two[1] == pytest.approx(2.0 * one[1], rel=1e-12, abs=1e-12)


def test_decompose_recovers_elemental_content():
    env = water_env()
    w, eps = env.decompose(Composition([0.0, 0.0, 2.0]))
    assert np.allclose(w, [2.0, 1.0])
    assert np.allclose(eps, [1.0])


def test_decompose_respects_declared_elemental_order():
    # declare the elemental set in reverse index order; w must follow it
    sp_o2 = IdealGasMixture([Species("O2", 5.0)])
    sp_h2 = IdealGasMixture([Species("H2", 5.0)])
    env = ReferenceEnvironment.chemical_convention(
        NAMES, (1, 0), WATER_NET, (sp_o2, sp_h2), 1.0, 1.0
    )
    w, _ = env.decompose(Composition([0.0, 0.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0])  # O2 first, as declared


def test_decompose_rejects_wrong_length():
    env = water_env()
    with pytest.raises(NotExpressible):
        env.decompose(Composition([1.0, 1.0]))


def test_open_state_at_the_reference_state_returns_assigned_values():
    env = single_species_env()
    gas = ideal_gas_model(3.0)
    ref = _state_at(gas, env.t0, env.p0, Composition([1.0]))
    ost = OpenState(Composition([1.0]), ref.energy, ref.params)
    e_open, s_open = open_energy_entropy(env, gas, ost)
    assert e_open == pytest.approx(env.e0_assigned[0], abs=1e-9)
    assert s_open == pytest.approx(env.s0_assigned[0], abs=1e-9)


def test_equal_composition_difference_is_the_measured_difference():
    env = single_species_env()
    gas = ideal_gas_model(3.0)
    o1 = OpenState(Composition([1.0]), 1.5, Parameters([1.0]))
    o2 = OpenState(Composition([1.0]), 1.5, Parameters([2.0]))
    _, s1 = open_energy_entropy(env, gas, o1)
    _, s2 = open_energy_entropy(env, gas, o2)
    measured = measure_entropy_difference(
        gas, o1.closed_proxy(), o2.closed_proxy(), env.reservoir()
    )
    assert s2 - s1 == pytest.approx(measured, abs=1e-9)
    assert s2 - s1 == pytest.approx(math.log(2.0), abs=1e-9)


def test_measured_open_entropy_agrees_with_direct_relation():
    env = water_env()
    mix = water_mix()
    ost = OpenState(Composition([1.0, 0.5, 1.0]), 9.0, Parameters([1.5]))
    _, s_measured = open_energy_entropy(env, mix, ost)
    assert s_measured == pytest.approx(open_entropy_direct(env, mix, ost), abs=1e-9)


def test_mixture_against_unreacted_precursors():
    # same energy, same box: the open-scale difference equals the analytic
    # entropy change of the reacting mixture
    env = water_env()
    mix = water_mix()
    volume = Parameters([1.5])
    energy = 9.0
    precursors = OpenState(Composition([2.0, 1.0, 0.0]), energy, volume)
    burned = OpenState(Composition([0.0, 0.0, 2.0]), energy, volume)
    _, s_pre = open_energy_entropy(env, mix, precursors)
    _, s_burn = open_energy_entropy(env, mix, burned)
    analytic = (entropy_of(mix, burned.closed_proxy())
                - entropy_of(mix, precursors.closed_proxy()))
    assert s_burn - s_pre == pytest.approx(analytic, abs=1e-9)


def test_open_energy_uses_reference_scale():
    env = water_env()
    mix = water_mix()
    ost = OpenState(Composition([2.0, 1.0, 0.0]), 9.0, Parameters([1.5]))
    e_open, _ = open_energy_entropy(env, mix, ost)
    w, _ = env.decompose(ost.comp)
    e_elem = sum(wi * env.physical_references[i][0] for i, wi in enumerate(w))
    e0_assigned = np.dot(w, env.e0_assigned)
    assert e_open == pytest.approx(e0_assigned + ost.energy - e_elem, rel=1e-12)


def test_gauge_shift_moves_entropies_linearly():
    base = water_env()
    shifted = ReferenceEnvironment(
        NAMES, (0, 1), WATER_NET, base.species_models, base.t0, base.p0,
        base.e0_assigned, [s + d for s, d in zip(base.s0_assigned, (0.25, -0.5))],
    )
    mix = water_mix()
    ost = OpenState(Composition([0.0, 0.0, 2.0]), 9.0, Parameters([1.5]))
    w, _ = base.decompose(ost.comp)
    _, s_base = open_energy_entropy(base, mix, ost)
    _, s_shift = open_energy_entropy(shifted, mix, ost)
    assert s_shift - s_base == pytest.approx(np.dot(w, [0.25, -0.5]), abs=1e-9)

    # entropy differences at fixed composition are gauge-free
    ost2 = OpenState(ost.comp, 11.0, ost.params)
    _, s2_base = open_energy_entropy(base, mix, ost2)
    _, s2_shift = open_energy_entropy(shifted, mix, ost2)
    assert s2_shift - s_shift == pytest.approx(s2_base - s_base, abs=1e-9)


def test_total_potential_single_species_closed_form():
    # mu = T (-S/n + dof/2 + 1) for the bare relation (identity gauge)
    gas = ideal_gas_model(3.0)
    ost = OpenState(Composition([1.0]), 1.5, Parameters([1.0]))
    s = entropy_of(gas, ost.closed_proxy())
    t = temperature_of(gas, ost.closed_proxy())
    expected = t * (-s / 1.0 + 1.5 + 1.0)
    assert total_potentials(None, gas, ost)[0] == pytest.approx(expected, abs=1e-6)


def test_total_potential_is_intensive():
    gas = ideal_gas_model(3.0)
    ost1 = OpenState(Composition([1.0]), 1.5, Parameters([1.0]))
    ost2 = OpenState(Composition([2.0]), 3.0, Parameters([2.0]))
    mu1 = total_potentials(None, gas, ost1)[0]
    mu2 = total_potentials(None, gas, ost2)[0]
    assert mu1 == pytest.approx(mu2, abs=1e-6)


def test_total_potential_near_zero_uses_one_sided_difference():
    # n_k = 1e-7 lies below the amount step: the closed form still applies,
    # and without a ds_dn hook the fallback difference goes one-sided
    mix = water_mix()
    ost = OpenState(Composition([2.0, 1.0, 1e-7]), 9.0, Parameters([1.0]))
    proxy = ost.closed_proxy()
    t = temperature_of(mix, proxy)
    ds_dn = mix.ds_dn(proxy.energy, proxy.params, proxy.comp)
    mu = total_potentials(None, mix, ost)[2]
    assert math.isfinite(mu)
    assert mu == pytest.approx(-t * ds_dn[2], rel=1e-12)
    assert math.isfinite(total_potentials(None, masked(mix, hide=("ds_dn",)), ost)[2])


def _central_potential(env, model, ost, k):
    """dE_open/dn_k at fixed S_open and V by a central difference."""
    e_open = _open_energy_function(env, model)
    s_here = entropy_of(model, ost.closed_proxy())
    if env is not None:
        s_here += env.gauge(ost.comp)[1]
    h = 1e-6 * max(1.0, ost.comp.amounts[k])
    hi, lo = list(ost.comp.amounts), list(ost.comp.amounts)
    hi[k] += h
    lo[k] -= h
    return (e_open(s_here, Composition(hi), ost.params)
            - e_open(s_here, Composition(lo), ost.params)) / (2.0 * h)


WATER_ENV = water_env()


@given(st.lists(st.floats(0.2, 2.0), min_size=3, max_size=3), st.floats(5.0, 12.0),
       st.floats(0.5, 3.0), st.booleans())
@settings(max_examples=150, deadline=None)
def test_total_potential_matches_central_difference(amounts, energy, volume, with_env):
    env = WATER_ENV if with_env else None
    mix = water_mix()
    ost = OpenState(Composition(amounts), energy, Parameters([volume]))
    for k, mu in enumerate(total_potentials(env, mix, ost)):
        assert abs(mu - _central_potential(env, mix, ost, k)) <= 1e-7 * max(1.0, abs(mu))


@pytest.mark.parametrize("amounts", [[1.0, 0.5, 1.0], [2.0, 1.0, 1e-12], [0.0, 1.0, 0.3]])
def test_total_potentials_are_undefined_at_the_boundary(amounts):
    # one potential per constituent, none (nan) at an amount at or below 1e-12
    mix = water_mix()
    ost = OpenState(Composition(amounts), 9.0, Parameters([1.5]))
    for env in (None, WATER_ENV):
        mu = total_potentials(env, mix, ost)
        assert type(mu) is tuple and len(mu) == 3
        for k, nk in enumerate(amounts):
            assert math.isnan(mu[k]) == (nk <= 1e-12)
            if nk > 1e-12:
                assert math.isfinite(mu[k])
        with pytest.raises(IndexError):
            mu[3]


def test_total_potential_finite_difference_fallback():
    env = water_env()
    mix = water_mix()
    hidden = masked(mix, hide=("ds_dn",))
    ost = OpenState(Composition([1.0, 0.5, 1.0]), 9.0, Parameters([1.5]))
    for e in (None, env):
        mu = total_potentials(e, hidden, ost)
        assert np.all(np.isfinite(mu))
        assert mu == pytest.approx(total_potentials(e, mix, ost), abs=1e-6)


def test_total_potential_rejects_inexpressible_composition():
    env = water_env()
    ost = OpenState(Composition([1.0, 1.0]), 9.0, Parameters([1.5]))
    with pytest.raises(NotExpressible):
        total_potentials(env, IdealGasMixture([Species("H2", 5.0), Species("O2", 5.0)]), ost)


@pytest.mark.parametrize("convention", ["chemical", "natural"])
def test_gauge_gradient_matches_finite_difference(convention):
    env = water_env(convention, t0=1.3, p0=0.7)
    n = np.array([1.0, 0.5, 1.0])
    g_e, g_s = env.gauge_gradient
    assert type(g_e) is tuple and type(g_s) is tuple  # immutable: shared by every caller
    for k in range(3):
        hi, lo = n.copy(), n.copy()
        hi[k] += 1e-4
        lo[k] -= 1e-4
        (e_hi, s_hi), (e_lo, s_lo) = env.gauge(Composition(hi)), env.gauge(Composition(lo))
        assert g_e[k] == pytest.approx((e_hi - e_lo) / 2e-4, rel=1e-9, abs=1e-9)
        assert g_s[k] == pytest.approx((s_hi - s_lo) / 2e-4, rel=1e-9, abs=1e-9)


def test_gauge_gradient_spans_constituents_with_signed_content():
    # A -> B + C with elements {A, B}: one unit of C alone has content
    # (A: +1, B: -1), yet gauge differences through C stay linear
    names = ("A", "B", "C")
    net = ReactionNetwork([[-1.0], [1.0], [1.0]])
    sp_a = IdealGasMixture([Species("A", 3.0)])
    sp_b = IdealGasMixture([Species("B", 5.0)])
    env = ReferenceEnvironment.chemical_convention(names, (0, 1), net, (sp_a, sp_b), 1.0, 2.0)
    n = np.array([0.5, 2.0, 1.0])
    g_e, _ = env.gauge_gradient
    hi = n.copy()
    hi[2] += 0.25
    e_hi, _ = env.gauge(Composition(hi))
    e_0, _ = env.gauge(Composition(n))
    assert g_e[2] == pytest.approx((e_hi - e_0) / 0.25, rel=1e-12)


def test_cached_physical_reference_equals_fresh_solve():
    env = water_env(t0=1.3, p0=0.7)
    for i, model in enumerate(env.species_models):
        fresh = _state_at(model, env.t0, env.p0, Composition([1.0]))
        assert env.physical_references[i] == (fresh.energy, entropy_of(model, fresh))
    assert env.physical_references is env.physical_references


def test_gibbs_open_residual_second_order():
    rng = np.random.default_rng(41)
    mix = water_mix()
    ratios = []
    for _ in range(15):
        comp = Composition(rng.uniform(0.5, 2.0, size=3))
        ost = OpenState(comp, rng.uniform(8.0, 14.0), Parameters([rng.uniform(0.8, 2.5)]))
        d = 1e-3
        r1 = gibbs_open_residual(None, mix, ost, d, [d, -d, d], [d])
        r2 = gibbs_open_residual(None, mix, ost, d / 2, [d / 2, -d / 2, d / 2], [d / 2])
        if r2 > 1e-12:
            ratios.append(r1 / r2)
    assert ratios
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_nonreactive_table_matches_relation_pointwise():
    env = single_species_env("natural")
    gas = ideal_gas_model(3.0)
    grid = OpenGrid(energies=(1.0, 1.5, 2.0), volumes=(1.0, 2.0),
                    compositions=(Composition([1.0]),))
    rows = open_fundamental_relation(env, gas, grid)
    assert len(rows) == 6
    for row in rows:
        assert row.status == "ok"
        st0 = state(row.energy, row.volume, [1.0])  # natural gauge: open E = model E
        assert row.entropy == pytest.approx(entropy_of(gas, st0), abs=1e-9)


def test_table_monotone_in_energy_along_grid_lines():
    env = water_env()
    mix = water_mix()
    grid = OpenGrid(energies=(7.0, 8.0, 9.0, 10.0), volumes=(1.0,),
                    compositions=(Composition([2.0, 1.0, 0.0]),),
                    reactive=True, network=WATER_NET)
    rows = open_fundamental_relation(env, mix, grid)
    entropies = [r.entropy for r in rows if r.status == "ok"]
    assert len(entropies) == 4
    assert all(b > a for a, b in zip(entropies, entropies[1:]))


def test_reactive_isomerization_table_symmetry():
    iso_net = ReactionNetwork([[-1.0], [1.0]])
    mix = IdealGasMixture([Species("A", 3.0), Species("B", 3.0)])
    no_reactions = ReactionNetwork(np.zeros((2, 0)))
    gasA = IdealGasMixture([Species("A", 3.0)])
    gasB = IdealGasMixture([Species("B", 3.0)])
    env = ReferenceEnvironment.natural_convention(
        ("A", "B"), (0, 1), no_reactions, (gasA, gasB), 1.0, 1.0
    )
    grid = OpenGrid(
        energies=(2.0,), volumes=(1.0,),
        compositions=(Composition([1.0, 0.0]), Composition([0.0, 1.0])),
        reactive=True, network=iso_net,
    )
    rows = open_fundamental_relation(env, mix, grid)
    assert all(r.status == "ok" for r in rows)
    # swapping the initial composition mirrors the equilibrium extent
    n_a, n_b = rows[0].n_se, rows[1].n_se
    assert n_a[0] == pytest.approx(n_b[1], abs=1e-8)
    assert rows[0].entropy == pytest.approx(rows[1].entropy, abs=1e-8)


def test_table_flags_gaps_instead_of_failing():
    env = water_env()
    mix = water_mix()
    grid = OpenGrid(energies=(-50.0, 9.0), volumes=(1.0,),
                    compositions=(Composition([2.0, 1.0, 0.0]),),
                    reactive=True, network=WATER_NET)
    rows = open_fundamental_relation(env, mix, grid)
    statuses = [r.status for r in rows]
    assert any(s.startswith("gap") for s in statuses)
    assert any(s == "ok" for s in statuses)


def test_incomplete_elemental_set_rejected_at_construction():
    # an extra constituent no reaction can form breaks completeness
    names = ("H2", "O2", "H2O", "He")
    net = ReactionNetwork([[-2.0], [-1.0], [2.0], [0.0]])
    sp_h2 = IdealGasMixture([Species("H2", 5.0)])
    sp_o2 = IdealGasMixture([Species("O2", 5.0)])
    with pytest.raises(NotExpressible):
        ReferenceEnvironment.chemical_convention(
            names, (0, 1), net, (sp_h2, sp_o2), 1.0, 1.0
        )


def test_composition_needing_negative_elements_not_expressible():
    # A -> B + C with elements {A, B}: a state holding C without its
    # co-product B would need negative elemental B
    names = ("A", "B", "C")
    net = ReactionNetwork([[-1.0], [1.0], [1.0]])
    sp_a = IdealGasMixture([Species("A", 3.0)])
    sp_b = IdealGasMixture([Species("B", 3.0)])
    env = ReferenceEnvironment.chemical_convention(names, (0, 1), net, (sp_a, sp_b), 1.0, 1.0)
    with pytest.raises(NotExpressible):
        env.decompose(Composition([0.0, 0.0, 1.0]))
    w, _ = env.decompose(Composition([0.0, 1.0, 1.0]))
    assert np.allclose(w, [1.0, 0.0])


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def demo_open_env():
    return build_reference_env(load_scenario(SCENARIOS / "demo_open.scn"), "env1")


def chain_env():
    # A -> B -> C with A elemental: two extents form B and C
    net = ReactionNetwork([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
    return ReferenceEnvironment.chemical_convention(
        ("A", "B", "C"), (0,), net, (IdealGasMixture([Species("A", 3.0)]),), 1.0, 1.0)


def _lstsq_decompose(env, n):
    """Per-call oracle: the non-elemental rows of n = n_elem(w) + nu eps
    solved for eps by least squares, then w from the elemental rows."""
    nu = np.array(env.network.rows)
    outside = [k for k in range(nu.shape[0]) if k not in env.elemental]
    eps, *_ = np.linalg.lstsq(nu[outside], n[outside], rcond=RCOND)
    elem = list(env.elemental)
    return n[elem] - (nu @ eps)[elem], eps


# water_env is the environment of the tabulate benchmark workload as well
@pytest.mark.parametrize("make", [demo_open_env, water_env, chain_env])
def test_decompose_matches_a_per_call_least_squares_oracle(make):
    env = make()
    rng = np.random.default_rng(91)
    scales = rng.choice([1e-3, 1.0, 1e3], (200, 1))
    for n in rng.uniform(0.0, 3.0, (200, len(env.constituents))) * scales:
        w, eps = env.decompose(Composition(n))
        w_want, eps_want = _lstsq_decompose(env, n)
        tol = 1e-12 * max(1.0, float(np.max(n)))
        assert np.max(np.abs(w - np.maximum(w_want, 0.0))) <= tol
        assert np.max(np.abs(eps - eps_want)) <= tol


def test_content_maps_are_built_once_and_decompose_solves_nothing(monkeypatch):
    env = water_env()
    calls = []
    real = stoichiometry._svd

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(stoichiometry, "_svd", counted)
    for n in np.random.default_rng(92).uniform(0.0, 2.0, (50, 3)):
        env.decompose(Composition(n))
        env.gauge(Composition(n))
    env.gauge_gradient
    assert calls == []  # the content maps come from the elemental-set report


def _construction_counts(monkeypatch, build):
    """Constructions, elemental-set validations and SVDs while ``build()``
    makes an environment and its content maps, references and gauge
    gradient are read."""
    from entrokit import open_systems

    calls = {"init": 0, "validate": 0, "svd": 0}
    for owner, name, key in [(ReferenceEnvironment, "__init__", "init"),
                             (open_systems, "validate_elemental_set", "validate"),
                             (stoichiometry, "_svd", "svd")]:
        real = getattr(owner, name)

        def counted(*args, _real=real, _key=key):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    env = build()
    env.content_maps, env.physical_references, env.gauge_gradient
    return calls


@pytest.mark.parametrize("convention", ["scenario", "chemical", "natural"])
def test_an_environment_is_built_once_from_one_elemental_decomposition(monkeypatch,
                                                                        convention):
    # the report that validates the elemental set also gives the content
    # maps, so a build makes one construction, one validation and one SVD
    # (the pseudo-inverse of the outside rows)
    scn = load_scenario(SCENARIOS / "demo_open.scn")
    build = (partial(build_reference_env, scn, "env1") if convention == "scenario"
             else partial(water_env, convention))
    assert _construction_counts(monkeypatch, build) == {"init": 1, "validate": 1, "svd": 1}


@pytest.mark.parametrize("convention", ["chemical", "natural"])
def test_each_elemental_box_is_solved_once(monkeypatch, convention):
    # the conventions solve each box for their assigned values, and the
    # physical references read those boxes: one state per elemental species
    from entrokit import open_systems

    calls = []
    real = open_systems._state_at

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(open_systems, "_state_at", counted)
    env = water_env(convention)
    env.gauge_gradient, env.physical_references
    assert calls == [UNIT, UNIT]
    fresh = open_systems._physical_references(env.species_models,
                                              open_systems._boxes(env.species_models, 1.0, 1.0))
    assert env.physical_references == fresh


@pytest.mark.parametrize("t0, p0", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                    (0.0, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
def test_reference_conditions_must_be_positive_and_finite(t0, p0):
    sp_h2 = IdealGasMixture([Species("H2", 5.0)])
    sp_o2 = IdealGasMixture([Species("O2", 5.0)])
    args = (NAMES, (0, 1), WATER_NET, (sp_h2, sp_o2), t0, p0)
    for make in (partial(ReferenceEnvironment, *args, (0.0, 0.0), (0.0, 0.0)),
                 partial(ReferenceEnvironment.chemical_convention, *args),
                 partial(ReferenceEnvironment.natural_convention, *args)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            make()


def test_decompose_refusals_keep_their_messages():
    with pytest.raises(NotExpressible,
                       match="^composition has 2 entries, environment declares 3$"):
        water_env().decompose(Composition([1.0, 1.0]))
    # A -> B + C with elements {A, B}: C alone needs negative elemental B
    net = ReactionNetwork([[-1.0], [1.0], [1.0]])
    sp_a = IdealGasMixture([Species("A", 3.0)])
    sp_b = IdealGasMixture([Species("B", 3.0)])
    env = ReferenceEnvironment.chemical_convention(("A", "B", "C"), (0, 1), net,
                                                   (sp_a, sp_b), 1.0, 1.0)
    lone_c = Composition([0.0, 0.0, 1.0])
    with pytest.raises(NotExpressible,
                       match="^composition would need negative elemental amounts$"):
        env.decompose(lone_c)


def lone_c_env():
    """A -> B + C with elements {A, B}: C without its co-product B would need
    negative elemental B."""
    net = ReactionNetwork([[-1.0], [1.0], [1.0]])
    return ReferenceEnvironment.chemical_convention(
        ("A", "B", "C"), (0, 1), net,
        (IdealGasMixture([Species("A", 3.0)]), IdealGasMixture([Species("B", 3.0)])),
        1.0, 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e7, 1e8])
def test_decompose_tolerances_grow_with_the_amounts(scale):
    # a complete elemental set reaches every composition at any size, while
    # rounding in the maps grows with the amounts
    env = chain_env()
    rng = np.random.default_rng(94)
    for n in rng.uniform(0.0, 3.0, (200, 3)) * scale:
        env.decompose(Composition(n))
    # what is out of reach stays out of reach at every size, down to a
    # shortage of one part in 1e6 of the largest amount
    env = lone_c_env()
    for n in ([0.0, 0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 1.0 - 1e-6, 1.0]):
        with pytest.raises(NotExpressible, match="negative elemental"):
            env.decompose(Composition(np.array(n) * scale))


def _calls_per_point(monkeypatch, reactive):
    """Calls per tabulated point over seeded water points: checked evaluations
    (validate and evaluate), relation evaluations, decompositions (the
    elemental content that ``decompose`` and ``gauge`` share), and, as
    inversions, the pressure's differenced fallback ``MatterModel.ds_dv``."""
    from entrokit import matter_models, open_systems

    env, mix = water_env(), water_mix()
    env.physical_references, env.content_maps  # built once, before counting
    counts = dict.fromkeys(("checked", "entropy", "decompose", "inversions"), 0)
    for owner, name, key in [
        (matter_models.MatterModel, "validate", "checked"),
        (IdealGasMixture, "evaluate", "checked"),
        (IdealGasMixture, "entropy", "entropy"),
        (open_systems.ReferenceEnvironment, "_content", "decompose"),
        (matter_models.MatterModel, "ds_dv", "inversions"),  # the pressure's fallback
    ]:
        real = getattr(owner, name)

        def counted(*args, _real=real, _key=key, **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    rng = np.random.default_rng(93)
    points = 0
    for a, b, vol in zip(rng.uniform(0.6, 1.4, 12), rng.uniform(0.1, 0.5, 12),
                         rng.uniform(0.5, 3.0, 12)):
        grid = OpenGrid(tuple(rng.uniform(5.0, 10.0, 2)), (vol,),
                        (Composition([2.0 * a, a, b]),), reactive=reactive,
                        network=WATER_NET)
        rows = open_fundamental_relation(env, mix, grid)
        assert all(row.status == "ok" for row in rows)
        points += len(rows)
    return {key: value / points for key, value in counts.items()}


def test_a_nonreactive_table_point_evaluates_each_state_once(monkeypatch):
    # the table state, the reference proxy state and the legs of the
    # reversible measurement: 13 checked evaluations and 9 relation
    # evaluations before they shared one, 2 decompositions and 2 inversions
    # for a differenced pressure; then 8, 8 and 1.  The two points of a grid
    # share a composition, so the second reuses the first's reference record
    # (its decomposition and the reference proxy state's entropy), and the
    # measurement, which starts at T_R, runs without its zero-length first
    # isentrope: 7 and 6 evaluations, 1 and 0 decompositions.  With the table
    # state's S and the reference proxy state's (T, S) handed down, the
    # measurement evaluates only the two states it makes: 4 and 3
    per_point = _calls_per_point(monkeypatch, reactive=False)
    assert per_point["checked"] == 3.5
    assert per_point["entropy"] == 3.5
    assert per_point["decompose"] == 0.5
    assert per_point["inversions"] == 0


def test_a_reactive_table_point_evaluates_each_solver_point_once(monkeypatch):
    # each equilibrium point is validated once, not twice; before, these
    # points made 29.4 checked and 16.71 relation evaluations each.  Now the
    # probes read the closed form, the answer is one evaluation and its
    # reference proxy state another, and the measurement evaluates the two
    # states it makes
    per_point = _calls_per_point(monkeypatch, reactive=True)
    assert per_point["checked"] == 4
    assert per_point["entropy"] == 4
    assert per_point["decompose"] == 1
    assert per_point["inversions"] == 0


def test_table_points_count_their_relation_evaluations(monkeypatch):
    # a non-reactive point evaluates its table state and the measurement's
    # two states, and on a record miss its reference proxy state (4, then 3
    # on a hit); a reactive point evaluates its answer, its reference proxy
    # state and the measurement's two states (4), its probes reading the
    # closed form
    env, mix = water_env(), water_mix()
    env.physical_references  # built once, before counting
    calls = []
    real = IdealGasMixture.entropy

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(IdealGasMixture, "entropy", counted)

    def evaluations(energy, amounts, reactive):
        grid = OpenGrid((energy,), (1.3,), (Composition(amounts),), reactive=reactive,
                        network=WATER_NET)
        before = len(calls)
        (row,) = open_fundamental_relation(env, mix, grid)
        assert row.status == "ok"
        return len(calls) - before

    assert [evaluations(e, [1.6, 0.8, 0.3], False) for e in (8.0, 7.0, 9.0)] == [4, 3, 3]
    assert [evaluations(e, [1.6, 0.8, 0.3], True) for e in (8.0, 7.0)] == [4, 4]
    assert evaluations(8.0, [1.2, 0.6, 0.2], False) == 4


def test_a_reactive_table_point_keeps_its_call_budget(tmp_path, monkeypatch):
    # demo_open's tab1 through the CLI: six reactive points, each with seven
    # probes through ds_dn_along, three checked evaluations (its answer, its
    # reference proxy state and the measurement's contact state) and one
    # ds_dn, at its answer, which the table's potentials reuse
    from entrokit.cli import main

    calls = dict.fromkeys(("ds_dn_along", "evaluate", "ds_dn"), 0)
    for name in calls:
        real = getattr(IdealGasMixture, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(IdealGasMixture, name, counted)
    assert main(["run", "--scenario", str(SCENARIOS / "demo_open.scn"),
                 "--out", str(tmp_path), "--tabulate", "tab1"]) == 0
    assert calls["ds_dn_along"] == 42
    assert calls["evaluate"] <= 18
    assert calls["ds_dn"] == 6


def test_reactive_points_do_not_keep_their_records(monkeypatch):
    # an equilibrium composition seldom recurs: a reactive grid builds each
    # point's record and keeps none, so it leaves the records as they were,
    # and a stream of non-reactive grids over five compositions misses once
    # per composition
    env, mix = water_env(), water_mix()
    decompositions = _counting_decompositions(monkeypatch)
    rng = np.random.default_rng(99)
    pool = [[2.0 * a, a, b] for a, b in zip(rng.uniform(0.6, 1.4, 5), rng.uniform(0.1, 0.5, 5))]
    misses, used = 0, set()
    for k in range(60):
        reactive = k % 3 == 0
        c = int(rng.integers(5))
        grid = OpenGrid(tuple(rng.uniform(5.0, 10.0, 2)), (rng.uniform(0.5, 3.0),),
                        (Composition(pool[c]),), reactive=reactive, network=WATER_NET)
        records = [(key, id(record)) for key, record in env._records.items()]
        before = len(decompositions)
        assert all(row.status == "ok" for row in open_fundamental_relation(env, mix, grid))
        if reactive:
            assert [(key, id(record)) for key, record in env._records.items()] == records
            assert len(decompositions) - before == 2
        else:
            misses += len(decompositions) - before
            used.add(c)
    assert misses == len(used) == len(env._records) == 5


@pytest.mark.parametrize("reactive", [False, True])
def test_table_entropy_has_the_bits_of_the_public_measurement(reactive):
    # a table point hands its state's entropy down to the measurement; the
    # public open_energy_entropy, which evaluates that state itself, gives
    # the same bits for the same state
    env, cold, mix = water_env(), water_env(), water_mix()
    rng = np.random.default_rng(100)
    for _ in range(20):
        a, b = rng.uniform(0.6, 1.4), rng.uniform(0.1, 0.5)
        grid = OpenGrid(tuple(rng.uniform(5.0, 10.0, 2)), (rng.uniform(0.5, 3.0),),
                        (Composition([2.0 * a, a, b]),), reactive=reactive, network=WATER_NET)
        for energy, row in zip(grid.energies, open_fundamental_relation(env, mix, grid)):
            ost = OpenState(Composition(row.n_se), energy, Parameters([row.volume]))
            assert _bits((row.energy, row.entropy)) == _bits(open_energy_entropy(cold, mix, ost))


def _counting_decompositions(monkeypatch):
    calls = []
    real = ReferenceEnvironment._content

    def counted(self, comp):
        calls.append(comp)
        return real(self, comp)

    monkeypatch.setattr(ReferenceEnvironment, "_content", counted)
    return calls


def _bits(values):
    return tuple(struct.pack("d", x) for x in values)


def test_an_equal_composition_reuses_the_reference_record(monkeypatch):
    env, mix = water_env(), water_mix()
    decompositions = _counting_decompositions(monkeypatch)
    amounts = [1.2, 0.7, 0.3]
    first = open_energy_entropy(env, mix, OpenState(Composition(amounts), 8.0, Parameters([1.3])))
    # another object with the same amounts, at another state: no decomposition
    again = open_energy_entropy(env, mix, OpenState(Composition(amounts), 8.0, Parameters([1.3])))
    other = open_energy_entropy(env, mix, OpenState(Composition(amounts), 6.0, Parameters([2.1])))
    assert len(decompositions) == 1 and len(env._records) == 1
    assert _bits(again) == _bits(first)
    cold = open_energy_entropy(water_env(), mix,
                               OpenState(Composition(amounts), 6.0, Parameters([2.1])))
    assert _bits(other) == _bits(cold)
    assert env.reservoir() is env.reservoir()


def test_each_model_gets_its_own_reference_record():
    # same species, other formation energy: the second model's values are
    # those of a cold environment, not the first model's
    env, comp = water_env(), Composition([1.2, 0.7, 0.3])
    ost = OpenState(comp, 8.0, Parameters([1.3]))
    shallow, deep = water_mix(), water_mix(e0_water=-3.0)
    got = [open_energy_entropy(env, model, ost) for model in (shallow, deep, shallow, deep)]
    assert len(env._records) == 2
    for model, values in zip((shallow, deep) * 2, got):
        assert _bits(values) == _bits(open_energy_entropy(water_env(), model, ost))
    assert got[0][1] != got[1][1]


def test_a_refused_composition_raises_on_every_call(monkeypatch):
    env, mix = lone_c_env(), IdealGasMixture([Species(n, 3.0) for n in "ABC"])
    decompositions = _counting_decompositions(monkeypatch)
    lone_c = OpenState(Composition([0.0, 0.0, 1.0]), 8.0, Parameters([1.3]))
    for _ in range(3):
        with pytest.raises(NotExpressible, match="negative elemental amounts"):
            open_energy_entropy(env, mix, lone_c)
    assert len(decompositions) == 3 and not env._records


def test_reference_records_are_bounded_and_the_least_recently_used_goes(monkeypatch):
    env, mix = water_env(), water_mix()
    decompositions = _counting_decompositions(monkeypatch)
    comps = [Composition([1.0 + 0.01 * k, 0.5, 0.3]) for k in range(RECORDS + 8)]

    def anchor(comp):
        open_energy_entropy(env, mix, OpenState(comp, 8.0, Parameters([1.3])))

    for comp in comps[:RECORDS]:
        anchor(comp)
    anchor(comps[0])  # used again: now the most recent
    for comp in comps[RECORDS:]:
        anchor(comp)
        assert len(env._records) == RECORDS
    assert len(decompositions) == len(comps)
    anchor(comps[0])  # kept
    assert len(decompositions) == len(comps)
    anchor(comps[1])  # among the first eight out
    assert len(decompositions) == len(comps) + 1
    assert len(env._records) == RECORDS


def test_tables_are_the_same_from_a_cold_and_a_warm_environment():
    # grids of the tabulate benchmark's kind over five reused compositions,
    # each grid handed new composition objects: a warm environment's rows
    # carry the bits of a new environment's, and gap messages word for word
    warm, mix = water_env(), water_mix()
    rng = np.random.default_rng(98)
    pool = [[2.0 * a, a, b] for a, b in zip(rng.uniform(0.6, 1.4, 5), rng.uniform(0.1, 0.5, 5))]
    statuses = set()
    for _ in range(100):
        grid = OpenGrid(tuple(rng.uniform(-6.0, 10.0, 2)), (rng.uniform(0.5, 3.0),),
                        (Composition(pool[rng.integers(5)]),))
        rows = open_fundamental_relation(warm, mix, grid)
        assert [repr(r) for r in rows] == [repr(r) for r in
                                           open_fundamental_relation(water_env(), mix, grid)]
        statuses.update(row.status.split(":")[0] for row in rows)
    assert statuses == {"ok", "gap"}
    assert len(warm._records) == 5


def test_reactive_tables_are_the_same_with_and_without_the_along_hook():
    # grids of the tabulate benchmark's kind, with energies low enough for
    # some gaps; rows agree to the bit, and gap messages word for word
    env, mix = water_env(), water_mix()
    hidden = masked(mix, hide=("ds_dn_along",))  # its probes go through checked points
    rng = np.random.default_rng(97)
    statuses = set()
    for _ in range(100):
        a, b = rng.uniform(0.6, 1.4), rng.uniform(0.1, 0.5)
        grid = OpenGrid(tuple(rng.uniform(-6.0, 10.0, 2)), (rng.uniform(0.5, 3.0),),
                        (Composition([2.0 * a, a, b]),), reactive=True, network=WATER_NET)
        rows = open_fundamental_relation(env, mix, grid)
        assert [repr(r) for r in rows] == [repr(r) for r in
                                           open_fundamental_relation(env, hidden, grid)]
        statuses.update(row.status.split(":")[0] for row in rows)
    assert statuses == {"ok", "gap"}


def _floats(values) -> bool:
    return type(values) is tuple and all(type(x) is float for x in values)


def test_decompose_gauge_gradient_and_potentials_hold_floats():
    env, mix = water_env(), water_mix()
    ost = OpenState(Composition([1.0, 0.5, 1.0]), 9.0, Parameters([1.5]))
    for values in (*env.decompose(ost.comp), *env.gauge_gradient, env.e0_assigned,
                   env.s0_assigned, total_potentials(env, mix, ost),
                   total_potentials(None, mix, ost)):
        assert _floats(values)


@pytest.mark.parametrize("reactive", [False, True])
def test_table_rows_hold_floats(reactive):
    grid = OpenGrid((9.0,), (1.5,), ([1.0, 0.5, 1.0],), reactive=reactive, network=WATER_NET)
    (row,) = open_fundamental_relation(water_env(), water_mix(), grid)
    assert row.status == "ok" and len(row.eps) == reactive
    assert _floats((row.energy, row.volume, row.entropy, row.temperature, row.pressure))
    assert all(_floats(values) for values in (row.n0, row.eps, row.n_se, row.mu))
