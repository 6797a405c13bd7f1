import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from entrokit import checks
from entrokit.checks import bracket_single_valued, monotonicity_scan, smoothness_scan
from entrokit.equilibrium import _fd_pressure, pressure_of
from entrokit.errors import DomainError, NegativeAmount, RangeError, RangeExceeded
from entrokit.stoichiometry import Composition
from entrokit.matter_models import (
    KB_SI,
    IdealGasMixture,
    Parameters,
    Species,
    SystemState,
    ThermalReservoir,
    _fd_slopes,
    energy_of,
    entropy_of,
    ideal_gas_model,
    reservoir_exchange,
    state,
    temperature_of,
)

from conftest import ReservoirModel

GAS3 = ideal_gas_model(3.0)
BASE = state(1.5, 1.0, [1.0])


def test_the_volume_is_the_first_parameter_as_a_float():
    params = Parameters(np.array([2.5, 7.0]))
    assert type(params.volume) is float and params.volume == 2.5
    assert params.with_volume(4.0).volume == 4.0 and params.volume == 2.5
    # an empty vector constructs, and has no volume to read
    empty = Parameters([])
    assert len(empty) == 0
    with pytest.raises(IndexError):
        empty.volume
    with pytest.raises(IndexError):
        empty.with_volume(1.0)
    with pytest.raises(AttributeError, match="has no attribute 'weight'"):
        empty.weight


def test_monatomic_entropy_value():
    # closed form of the declared relation
    assert entropy_of(GAS3, BASE) == pytest.approx(1.5 * math.log(1.5), abs=1e-12)


def test_entropy_against_quadrature_of_inverse_temperature():
    # independent oracle: S(E2) - S(E1) = integral of dE / T(E) with the
    # equipartition temperature T = 2E/(dof n) written out directly
    s1 = entropy_of(GAS3, state(1.0, 1.0, [1.0]))
    s2 = entropy_of(GAS3, state(1.5, 1.0, [1.0]))
    integral, err = quad(lambda e: 1.0 / (2.0 * e / 3.0), 1.0, 1.5)
    assert s2 - s1 == pytest.approx(integral, abs=1e-10)
    assert err < 1e-12


def test_doubling_volume_adds_n_log_two():
    s1 = entropy_of(GAS3, BASE)
    s2 = entropy_of(GAS3, state(1.5, 2.0, [1.0]))
    assert s2 - s1 == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_is_extensive():
    lam = 3.7
    s1 = entropy_of(GAS3, BASE)
    s2 = entropy_of(GAS3, state(1.5 * lam, lam, [lam]))
    assert s2 == pytest.approx(lam * s1, rel=1e-12)


def test_domain_error_on_nonpositive_energy():
    with pytest.raises(DomainError):
        entropy_of(GAS3, state(0.0, 1.0, [1.0]))
    with pytest.raises(DomainError):
        entropy_of(GAS3, state(1.0, -1.0, [1.0]))


def test_energy_of_inverts_the_example():
    s = 1.5 * math.log(1.5)
    e = energy_of(GAS3, s, Parameters([1.0]), BASE.comp)
    assert e == pytest.approx(1.5, abs=1e-10)


def test_energy_of_round_trip_random_states():
    rng = np.random.default_rng(3)
    for _ in range(50):
        st0 = state(rng.uniform(0.2, 8.0), rng.uniform(0.2, 8.0), [rng.uniform(0.5, 3.0)])
        s = entropy_of(GAS3, st0)
        e = energy_of(GAS3, s, st0.params, st0.comp)
        assert e == pytest.approx(st0.energy, rel=1e-10)


def test_energy_of_volume_scaling_closed_form():
    # E(S, 2V) = E(S, V) * 2^(-2/dof), by rearranging the declared relation
    s = entropy_of(GAS3, BASE)
    e1 = energy_of(GAS3, s, Parameters([1.0]), BASE.comp)
    e2 = energy_of(GAS3, s, Parameters([2.0]), BASE.comp)
    assert e2 == pytest.approx(e1 * 2.0 ** (-2.0 / 3.0), rel=1e-12)


def test_energy_of_range_error_below_ground():
    reservoir = ReservoirModel(1.0, -1.0, 1.0)
    with pytest.raises(RangeError):
        energy_of(reservoir, -2.0, Parameters([1.0]), BASE.comp)
    with pytest.raises(RangeError):
        energy_of(reservoir, 2.0, Parameters([1.0]), BASE.comp)


@pytest.mark.parametrize("entropy", [-200.0, 1e4])
def test_energy_of_range_error_where_closed_form_leaves_the_domain(entropy):
    # S = -200 inverts below the ground bound; S = 1e4 overflows the exponent
    with pytest.raises(RangeError):
        energy_of(GAS3, entropy, Parameters([1.0]), BASE.comp)


def test_invert_entropy_overflow_is_range_error():
    with pytest.raises(RangeError):
        GAS3.invert_entropy(1e4, Parameters([1.0]), BASE.comp)


def test_temperature_equipartition():
    assert temperature_of(GAS3, BASE) == pytest.approx(1.0, rel=1e-12)
    st5 = state(5.0, 2.0, [2.0])
    gas5 = ideal_gas_model(5.0)
    assert temperature_of(gas5, st5) == pytest.approx(2.0 * 5.0 / (5.0 * 2.0), rel=1e-12)


def test_temperature_analytic_matches_finite_difference():
    class Veiled(IdealGasMixture):
        """Same relation with the analytic derivative hidden."""

        def ds_de(self, energy, params, comp):
            return None

    veiled = Veiled([Species("gas", 3.0)])
    for e, v in [(1.5, 1.0), (4.0, 3.0), (0.7, 0.2)]:
        st0 = state(e, v, [1.0])
        assert temperature_of(veiled, st0) == pytest.approx(
            temperature_of(GAS3, st0), rel=1e-8
        )


def test_temperature_nonnegative_across_models():
    rng = np.random.default_rng(11)
    for _ in range(100):
        st0 = state(rng.uniform(0.5, 6.0), rng.uniform(0.2, 4.0), [rng.uniform(0.5, 2.0)])
        assert temperature_of(GAS3, st0) >= 0.0
    mix = IdealGasMixture([Species("a", 3), Species("b", 5, e0=-1.0)])
    st_mix = SystemState(2.0, Parameters([1.0]), Composition([1.0, 1.0]))
    assert temperature_of(mix, st_mix) >= 0.0


def test_reservoir_temperature_constant_over_range():
    model = ReservoirModel(0.7, -5.0, 5.0)
    for e in np.linspace(-4.9, 4.9, 7):
        assert temperature_of(model, state(e, 1.0, [1.0])) == pytest.approx(0.7, rel=1e-12)


def test_reservoir_entropy_change_is_heat_over_temperature():
    res = ThermalReservoir(1.0, 0.0, -10.0, 10.0)
    moved = reservoir_exchange(res, -math.log(2.0))
    assert moved.energy == pytest.approx(-math.log(2.0))


def test_reservoir_exchange_zero_is_identity():
    res = ThermalReservoir(2.0, 1.0, -10.0, 10.0)
    assert reservoir_exchange(res, 0.0) == res


def test_reservoir_range_enforced():
    res = ThermalReservoir(1.0, 9.5, -10.0, 10.0)
    with pytest.raises(RangeExceeded):
        reservoir_exchange(res, 1.0)


def test_theorem8_scan_builtin_models():
    assert monotonicity_scan(GAS3, Parameters([1.0]), BASE.comp, 0.1, 100.0).passed
    mix = IdealGasMixture([Species("a", 3), Species("b", 6, e0=-0.5, s0=0.2)])
    comp = Composition([1.0, 0.5])
    assert monotonicity_scan(mix, Parameters([2.0]), comp, 0.5, 50.0).passed
    res_model = ReservoirModel(1.3, -5.0, 5.0)
    assert monotonicity_scan(res_model, Parameters([1.0]), BASE.comp, -4.9, 4.9).passed


def test_smoothness_scan_builtin_models():
    assert smoothness_scan(GAS3, Parameters([1.0]), BASE.comp, 0.1, 100.0, n_points=200).passed
    res_model = ReservoirModel(1.3, -5.0, 5.0)
    assert smoothness_scan(res_model, Parameters([1.0]), BASE.comp, -4.0, 4.0, n_points=50).passed


def test_inverse_is_single_valued_on_brackets():
    assert bracket_single_valued(GAS3, Parameters([1.0]), BASE.comp, 0.1, 50.0).passed


def test_composite_energy_adds_for_uncorrelated_subsystems():
    # additivity of energy for separable, uncorrelated composites: the
    # composite state's energy is the plain sum
    parts = [state(1.5, 1.0, [1.0]), state(2.5, 2.0, [1.0]), state(0.7, 1.0, [2.0])]
    assert sum(p.energy for p in parts) == pytest.approx(4.7, abs=0.0)


def test_si_units_mode_scales_entropy_by_boltzmann_constant():
    from entrokit.matter_models import KB_SI

    si_gas = ideal_gas_model(3.0, kb=KB_SI)
    st0 = state(1.5, 1.0, [1.0])
    s_red = entropy_of(GAS3, st0)
    s_si = entropy_of(si_gas, st0)
    assert s_si == pytest.approx(KB_SI * s_red, rel=1e-12)
    assert temperature_of(si_gas, st0) == pytest.approx(
        temperature_of(GAS3, st0) / KB_SI, rel=1e-12
    )


def test_mixture_closed_form_hooks_match_generic_inversion():
    mix = IdealGasMixture([Species("a", 3), Species("b", 5, e0=-1.0, s0=0.1)])
    comp = Composition([1.2, 0.7])
    params = Parameters([1.7])
    st0 = SystemState(3.0, params, comp)
    s = entropy_of(mix, st0)
    closed = mix.invert_entropy(s, params, comp)
    rooted = energy_of(mix, s, params, comp)
    assert closed == pytest.approx(rooted, rel=1e-10)
    t = temperature_of(mix, st0)
    assert mix.energy_at_temperature(t, params, comp) == pytest.approx(st0.energy, rel=1e-12)


@given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3), st.floats(0.2, 5.0),
       st.floats(0.5, 3.0), st.sampled_from([1.0, KB_SI]))
@settings(max_examples=100, deadline=None)
def test_log_amounts_inverts_ds_dn(potentials, temperature, volume, kb):
    # at the amounts the hook gives, and the energy they have at T, dS/dn is
    # the given potentials; d ln n/d ln T matches a central difference
    t_unit = 300.0 if kb == KB_SI else 1.0
    mix = IdealGasMixture([Species("a", 3), Species("b", 5, e0=-kb * t_unit, s0=0.1),
                           Species("c", 6, e0=0.5 * kb * t_unit)], kb=kb)
    params = Parameters([volume])
    t = temperature * t_unit
    pot = np.array(potentials) * kb
    log_n, dlog = mix.log_amounts(t, params, pot)
    comp = Composition(np.exp(log_n))
    energy = mix.energy_at_temperature(t, params, comp)
    assert mix.ds_dn(energy, params, comp) == pytest.approx(pot, rel=1e-9, abs=1e-9 * kb)
    h = 1e-6
    slope = (mix.log_amounts(t * math.exp(h), params, pot)[0]
             - mix.log_amounts(t * math.exp(-h), params, pot)[0]) / (2 * h)
    assert dlog == pytest.approx(slope, rel=1e-7, abs=1e-7)
    # d ln n_k/d potential_k = -1/k_B
    shifted = mix.log_amounts(t, params, pot + np.array([kb, 0.0, 0.0]))[0]
    assert shifted - log_n == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)


def test_fd_slopes_is_exact_to_rounding_on_a_quadratic():
    # a central difference of a quadratic has no truncation error; a forward
    # one would be off by h f''/2, about 1e-6 here
    x = np.array([0.3, -2.0, 5.0])
    slopes = _fd_slopes(lambda y: y[0] ** 2 + 3.0 * y[0] * y[1] - 0.5 * y[2] ** 2, x)
    assert slopes == pytest.approx([2 * 0.3 + 3 * -2.0, 3 * 0.3, -5.0], abs=1e-9)


def test_fd_slopes_goes_forward_along_an_amount_within_one_step_of_zero():
    seen = []

    def f(y):
        seen.append(y[0])
        return y[0] ** 2

    # n = 1e-7 lies within one step (1e-6) of 0: (f(n + h) - f(n)) / h = 2n + h
    assert _fd_slopes(f, [1e-7], amounts=[0])[0] == pytest.approx(2e-7 + 1e-6, rel=1e-9)
    assert min(seen) >= 0.0
    # the same coordinate, not flagged as an amount, is differenced centrally
    assert _fd_slopes(f, [1e-7])[0] == pytest.approx(2e-7, rel=1e-6)


def test_fd_slopes_matches_the_amount_difference_of_the_entropy():
    mix = IdealGasMixture([Species("a", 5), Species("b", 5), Species("c", 6, e0=-2.0)])
    energy, params, n = 9.0, Parameters([1.0]), np.array([2.0, 1.0, 1e-7])
    expected = np.empty(3)
    for k, nk in enumerate(n):  # central where the step fits above 0, else forward
        h = 1e-6 * max(1.0, nk)
        hi, lo = n.copy(), n.copy()
        hi[k] += h
        lo[k] = nk - h if nk - h > 0.0 else nk
        expected[k] = ((mix.entropy(energy, params, Composition(hi))
                        - mix.entropy(energy, params, Composition(lo)))
                       / (2.0 * h if nk - h > 0.0 else h))
    slopes = _fd_slopes(lambda m: mix.entropy(energy, params, Composition(m)), n, amounts=range(3))
    assert np.array_equal(slopes, expected)


def test_fd_slopes_of_a_vector_function_is_its_jacobian():
    a = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
    jac = _fd_slopes(lambda y: a @ y + np.array([y[0] * y[1], 0.0, 0.0]), [1.0, -2.0])
    assert jac.shape == (3, 2)
    assert jac == pytest.approx(a + [[-2.0, 1.0], [0.0, 0.0], [0.0, 0.0]], abs=1e-9)


def test_fd_slopes_raises_when_the_step_is_lost_to_rounding():
    with pytest.raises(DomainError):
        _fd_slopes(lambda y: y[0], [1e-320], step=1e-6 * 1e-320)  # the step underflows to 0
    with pytest.raises(DomainError):
        _fd_slopes(lambda y: y[0], [math.inf])
    # at a subnormal volume the closed-form pressure overflows, and its
    # finite-difference fallback has no step left: both refuse the state
    with pytest.raises(DomainError):
        pressure_of(GAS3, state(1.5, 1e-320, [1.0]))
    with pytest.raises(DomainError):
        _fd_pressure(GAS3, state(1.5, 1e-320, [1.0]))


@pytest.mark.parametrize("measure, energy, volume", [
    (entropy_of, math.nan, 1.0),
    (entropy_of, 1.5, math.nan),
    (entropy_of, 1.5, math.inf),
    (temperature_of, math.nan, 1.0),
])
def test_non_finite_energy_or_volume_is_a_domain_error(measure, energy, volume):
    with pytest.raises(DomainError, match="is not finite"):
        measure(GAS3, state(energy, volume, [1.0]))


@pytest.mark.parametrize("volume", [math.nan, -1.0, math.inf])
def test_temperature_checks_the_volume_as_entropy_does(volume):
    st_bad = state(1.5, volume, [1.0])
    with pytest.raises(DomainError) as by_entropy:
        entropy_of(GAS3, st_bad)
    with pytest.raises(DomainError) as by_temperature:
        temperature_of(GAS3, st_bad)
    assert str(by_temperature.value) == str(by_entropy.value)


def test_isentrope_volume_that_underflows_is_a_range_error():
    with pytest.raises(RangeError, match="needs a volume below any positive one"):
        GAS3.volume_on_isentrope(-1e4, 1.0, Composition([1.0]))
    with pytest.raises(RangeError, match="needs a volume beyond any finite one"):
        GAS3.volume_on_isentrope(1e4, 1.0, Composition([1.0]))


def _oracle_terms(dof, e0, s0, kb, energy, volume, n):
    """The class docstring's relation, one species at a time: the temperature
    and the per-species terms n_k [(dof_k/2) ln((dof_k/2) kB T) + ln(V/n_k) + s0_k]
    split into their three parts, zero for empty species."""
    t = 2.0 * (energy - e0 @ n) / (kb * (dof @ n))
    live = n > 0.0
    safe = np.where(live, n, 1.0)
    thermal = np.where(live, n * 0.5 * dof * np.log(0.5 * dof * kb * t), 0.0)
    spatial = np.where(live, n * np.log(volume / safe), 0.0)
    constant = np.where(live, n * s0, 0.0)
    return t, thermal, spatial, constant


def _random_mixtures(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, 5))
        dof = rng.uniform(1.0, 7.0, k)
        e0 = rng.uniform(0.1, 2.0, k) * rng.choice([-1.0, 1.0], k)
        s0 = rng.uniform(-3.0, 3.0, k)
        n = rng.uniform(0.1, 3.0, k) * (rng.random(k) < 0.7)
        if not n.any():
            n[int(rng.integers(k))] = rng.uniform(0.1, 3.0)
        kb = KB_SI if i % 2 else 1.0
        # the thermal energy per unit of dof . n sets kB T / 2
        energy = e0 @ n + rng.uniform(0.05, 5.0) * (dof @ n)
        yield dof, e0, s0, n, kb, energy, rng.uniform(0.1, 10.0)


def _close(got, want, scale):
    """Agreement within 1e-12 of ``scale``, the largest magnitude summed into ``want``."""
    return abs(got - want) <= 1e-12 * max(abs(want), scale)


def test_mixture_relation_matches_the_per_species_oracle():
    for dof, e0, s0, n, kb, energy, volume in _random_mixtures(11, 400):
        gas = IdealGasMixture([Species(f"x{k}", d, a, b)
                               for k, (d, a, b) in enumerate(zip(dof, e0, s0))], kb=kb)
        comp, params = Composition(n), Parameters([volume])
        t, *parts = _oracle_terms(dof, e0, s0, kb, energy, volume, n)
        s_want = kb * sum(p.sum() for p in parts)
        s_scale = kb * sum(np.abs(p).sum() for p in parts)
        e_scale = abs(e0 @ n) + abs(energy)
        assert _close(gas.entropy(energy, params, comp), s_want, s_scale)
        assert _close(gas.invert_entropy(s_want, params, comp), energy, e_scale)
        assert _close(gas.volume_on_isentrope(s_want, t, comp), volume, volume)
        assert _close(gas.energy_at_temperature(t, params, comp), energy, e_scale)
        # dS/dn_k of the docstring relation, T depending on n through
        # E - e0 . n and dof . n: kB [(dof_k/2) ln((dof_k/2) kB T) + ln(V/n_k)
        # + s0_k - 1 - dof_k/2] - e0_k / T
        live = n > 0.0
        safe = np.where(live, n, 1.0)
        pieces = [kb * 0.5 * dof * np.log(0.5 * dof * kb * t), kb * np.log(volume / safe),
                  kb * s0, kb * (1.0 + 0.5 * dof), e0 / t]
        mu_want = pieces[0] + pieces[1] + pieces[2] - pieces[3] - pieces[4]
        mu_scale = sum(np.abs(p) for p in pieces)
        for got, want, scale, alive in zip(gas.ds_dn(energy, params, comp), mu_want,
                                           mu_scale, live):
            if alive:
                assert _close(got, want, scale)
            else:
                assert got == IdealGasMixture.LN_DIVERGENCE_CAP


MIX2 = [Species("a", 3.0, e0=0.2, s0=0.1), Species("b", 5.0, e0=-0.1, s0=1.0)]


def _methods(gas, params):
    """Each relation method of ``gas`` at one state, as a function of the
    composition returning a comparable value."""
    return [
        lambda c: gas.entropy(4.0, params, c), lambda c: gas.energy_floor(params, c),
        lambda c: gas.ds_de(4.0, params, c), lambda c: tuple(gas.ds_dn(4.0, params, c)),
        lambda c: gas.invert_entropy(2.0, params, c),
        lambda c: gas.energy_at_temperature(1.3, params, c),
        lambda c: gas.volume_on_isentrope(2.0, 1.3, c),
        lambda c: gas.volume_at_pressure(1.3, 0.7, c),
    ]


def test_alternating_compositions_each_get_their_own_values():
    gas, params = IdealGasMixture(MIX2), Parameters([1.5])
    methods = _methods(gas, params)
    comps = [Composition([1.0, 0.5]), Composition([0.3, 2.0]), Composition([0.0, 1.0])]
    # a new model per composition has nothing remembered
    want = [tuple(m(c) for m in _methods(IdealGasMixture(MIX2), params)) for c in comps]
    assert len(set(want)) == len(comps)
    for _ in range(3):
        for comp, values in zip(comps, want):
            assert tuple(m(comp) for m in methods) == values
            # an equal composition in a new object gives the same values
            assert tuple(m(Composition(comp.amounts)) for m in methods) == values


@pytest.mark.parametrize("amounts", [[1.0], [1.0, 1.0, 1.0], [], [0.0, 0.0]])
def test_bad_composition_raises_on_every_call_even_after_a_valid_one(amounts):
    gas, params = IdealGasMixture(MIX2), Parameters([1.5])
    good, bad = Composition([1.0, 0.5]), Composition(amounts)
    for _ in range(2):
        for method in _methods(gas, params):
            method(good)
            with pytest.raises(DomainError):
                method(bad)
            with pytest.raises(DomainError):
                method(bad)


def _counting(monkeypatch, cls, name):
    """Count the calls of method ``name`` of ``cls`` for the rest of the test."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(None)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_theorem_suite_evaluates_the_relation_a_fixed_number_of_times(
        tmp_path, monkeypatch, capsys):
    # 15,130 evaluations before the composition sums were remembered, and
    # until a standard process that starts at T_R left out its zero-length
    # first isentrope, which saves exactly one evaluation: a faster suite did
    # not come from skipping other evaluations
    from entrokit import process_engine
    from entrokit.cli import _run_theorem_suite

    calls = _counting(monkeypatch, IdealGasMixture, "entropy")
    two_legs = []
    real = process_engine._three_leg_schedule

    def counted(*args):
        schedule = real(*args)
        if len(schedule.steps) == 2:
            two_legs.append(None)
        return schedule

    monkeypatch.setattr(process_engine, "_three_leg_schedule", counted)
    assert _run_theorem_suite(tmp_path, 0)
    assert len(two_legs) == 133
    assert len(calls) == 15130 - len(two_legs) == 14997


def test_weight_process_fuzz_checks_its_one_composition_once_or_so(monkeypatch):
    calls = _counting(monkeypatch, IdealGasMixture, "_linear_sums")
    records = checks.fuzz_weight_processes(
        ideal_gas_model(3.0), BASE, ThermalReservoir(1.0, 0.0, -1e6, 1e6),
        np.random.default_rng(0), n=200)
    assert len(records) == 200
    assert 1 <= len(calls) <= 3


def _probe_outcome(probe, *args):
    """The bits of a probe's value, or the class and message of its refusal."""
    try:
        return "value", struct.pack("d", probe(*args))
    except (DomainError, NegativeAmount) as exc:
        return type(exc).__name__, str(exc)


def _generic_probe(model, energy, params, n0, direction, extent):
    """direction . dS/dn through a checked composition, as a point evaluates it."""
    comp = Composition(np.array(n0) + np.array(direction) * extent)
    model.evaluate(energy, params, comp)
    return float(np.array(direction) @ model.ds_dn(energy, params, comp))


def _assert_probes_agree(model, energy, params, n0, direction, extent):
    args = (energy, params, list(n0), list(direction), extent)
    hook = _probe_outcome(model.ds_dn_along, *args)
    assert hook == _probe_outcome(_generic_probe, model, *args), args
    return hook[0]


def _water_mixture(kb, t_scale, inert):
    species = [Species("H2", 5.0), Species("O2", 5.0),
               Species("H2O", 6.0, e0=-2.0 * kb * t_scale, s0=0.3)]
    return IdealGasMixture(species + [Species("Ar", 3.0, e0=0.3 * kb * t_scale)] * inert, kb=kb)


@pytest.mark.parametrize("kb, t_scale, scale", [(1.0, 1.0, 1.0), (KB_SI, 300.0, 1e20)])
def test_ds_dn_along_has_the_bits_of_the_generic_probe(kb, t_scale, scale):
    # water, and water beside an inert constituent, at interior extents, at
    # the ends of the extent interval (an empty constituent) and up to 1e-12
    # past them, where Composition clamps to 0; refusals agree in class and
    # message
    rng = np.random.default_rng(96)
    kinds = {"value": 0, "DomainError": 0, "NegativeAmount": 0}
    for trial in range(200):
        inert = trial % 2
        mix = _water_mixture(kb, t_scale, inert)
        direction = [-2.0, -1.0, 2.0] + [0.0] * inert
        n0 = rng.uniform(0.0, 2.0, 3 + inert) * (rng.random(3 + inert) > 0.2) * scale
        lo = max((-a / d for a, d in zip(n0, direction) if d > 0.0), default=-1.0)
        hi = min((a / -d for a, d in zip(n0, direction) if d < 0.0), default=1.0)
        extent = [rng.uniform(lo, hi), lo, hi, hi + rng.uniform(0.0, 5e-13),
                  lo - rng.uniform(0.0, 5e-13), hi + 0.1 * scale][trial % 6]
        comp = Composition(n0) if n0.any() else Composition([scale] * (3 + inert))
        energy = mix.energy_at_temperature(rng.uniform(0.05, 3.0) * t_scale, None, comp)
        energy += rng.uniform(-0.5, 0.5) * kb * t_scale * scale
        params = Parameters([rng.uniform(0.3, 3.0)])
        kinds[_assert_probes_agree(mix, energy, params, n0, direction, extent)] += 1
    assert min(kinds.values()) >= 5, kinds


@pytest.mark.parametrize("kb", [1.0, KB_SI])
def test_ds_dn_along_refuses_what_a_checked_composition_refuses(kb):
    mix = _water_mixture(kb, 1.0, 0)
    water, one = [-2.0, -1.0, 2.0], Parameters([1.0])
    n0 = [2.0, 1.0, 0.0]
    cases = [
        (5.0, one, n0, water, 1.0 + 1e-9),        # O2 negative beyond the clamp
        (5.0, one, n0, water, -0.1),              # H2O negative
        (5.0, one, [0.0, 0.0, 0.0], water, 0.0),  # empty
        (5.0, one, [1.0, 1.0], water[:2], 0.1),   # wrong length
        (5.0, Parameters([0.0]), n0, water, 0.1),
        (5.0, Parameters([-1.0]), n0, water, 0.1),
        (5.0, Parameters([math.inf]), n0, water, 0.1),
        (5.0, Parameters([math.nan]), n0, water, 0.1),
        (math.inf, one, n0, water, 0.1),
        (-math.inf, one, n0, water, 0.1),
        (math.nan, one, n0, water, 0.1),
        (-4.0 * kb, one, n0, water, 1.0),         # below the ground bound
        (-2.0 * kb + 5e-13, one, n0, water, 0.5),  # within GROUND_EPS of it
        (1.0, one, [1e308, 0.0, 0.0], water, 0.0),  # dof . n overflows: T = 0
    ]
    for case in cases:
        assert _assert_probes_agree(mix, *case) != "value", case


def _water_species(number):
    """H2, O2 and H2O, each constant passed through ``number``."""
    return [Species("H2", number(5.0), number(0.0), number(0.1)),
            Species("O2", number(5.0), number(0.0), number(-0.2)),
            Species("H2O", number(6.0), number(-2.0), number(0.3))]


def test_numpy_built_species_hold_floats_and_solve_to_the_same_bits():
    from entrokit.equilibrium import EquilibriumProblem, stable_equilibrium
    from entrokit.stoichiometry import ReactionNetwork

    mixes = [IdealGasMixture(_water_species(number)) for number in (float, np.float64)]
    for sp in mixes[1].species:
        assert all(type(x) is float for x in (sp.dof, sp.e0, sp.s0))
    assert all(type(x) is float for x in mixes[1]._dof + mixes[1]._e0 + mixes[1]._c)

    def solve_bits(mix):
        sol = stable_equilibrium(EquilibriumProblem(
            (mix,), (Parameters([1.0]),), (Composition([1.2, 0.6, 0.1]),), 8.0,
            network=ReactionNetwork([[-2.0], [-1.0], [2.0]])))
        return [x.hex() for x in (sol.entropy, sol.temperature, sol.kkt_residual,
                                  *sol.states[0].comp.amounts)]

    assert solve_bits(mixes[1]) == solve_bits(mixes[0])


@pytest.mark.parametrize("key, bad", [("dof", math.nan), ("dof", math.inf), ("e0", math.inf),
                                      ("e0", -math.inf), ("s0", np.float64("nan"))])
def test_species_refuses_non_finite_constants(key, bad):
    with pytest.raises(ValueError, match=key):
        Species("a", **{"dof": 3.0, "e0": 0.0, "s0": 0.0, key: bad})


def test_parameters_and_states_compare_and_hash_as_values():
    p1, p2 = Parameters([1.5, 2.0]), Parameters(np.array([1.5, 2.0]))
    assert p1 == p2 and hash(p1) == hash(p2) and p1 != Parameters([1.5, 2.5])
    assert type(p2.beta) is tuple and all(type(x) is float for x in p2.beta)
    s1 = SystemState(3.0, p1, Composition([1.0, 2.0]))
    s2 = SystemState(np.float64(3.0), p2, Composition(np.array([1.0, 2.0])))
    assert s1 == s2 and hash(s1) == hash(s2) and len({s1, s2}) == 1
    assert s1 != SystemState(3.5, p1, s1.comp)
    assert s1 != SystemState(3.0, p1, s1.comp, correlated=True)


def test_ds_dn_returns_floats():
    mix = IdealGasMixture(_water_species(float))
    ds_dn = mix.ds_dn(8.0, Parameters([1.0]), Composition([1.0, 0.5, 0.0]))
    assert len(ds_dn) == 3 and all(type(x) is float for x in ds_dn)
