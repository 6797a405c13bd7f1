import math
import random

import numpy as np
import pytest

from entrokit.checks import (
    fuzz_standard_processes,
    fuzz_weight_processes,
    nondecrease_check,
    pmm2_exhaustive_check,
    theorem_lower_bound_check,
)
from entrokit.stoichiometry import Composition
from entrokit.errors import (
    DegenerateStates,
    DomainError,
    InadmissibleStep,
    RangeError,
    RangeExceeded,
)
from entrokit.matter_models import (
    IdealGasMixture,
    Parameters,
    Species,
    SystemState,
    ThermalReservoir,
    energy_of,
    entropy_of,
    ideal_gas_model,
    solve_energy_at_temperature,
    state,
)
from entrokit.process_engine import (
    DirectContact,
    Isentropic,
    IsothermalContact,
    ProcessRecord,
    Schedule,
    assign_temperature,
    measure_entropy,
    measure_entropy_difference,
    measure_entropy_difference_composite,
    measure_temperature_ratio,
    _standard_legs,
    _volume_on_isentrope,
    reversible_standard_process,
    run_schedule,
)

from conftest import ReservoirModel, masked

GAS = ideal_gas_model(3.0)
GAS2 = IdealGasMixture([Species("A", 3.0), Species("B", 5.0, e0=-0.7, s0=0.2)])
ST1 = state(1.5, 1.0, [1.0])
ST2 = state(1.5, 2.0, [1.0])
RES = ThermalReservoir(1.0, 0.0, -1e6, 1e6)


def wide_reservoir(temperature):
    return ThermalReservoir(temperature, 0.0, -1e9, 1e9)


def test_isentropic_step_closed_form():
    rec = run_schedule(GAS, ST1, RES, Schedule((Isentropic(Parameters([2.0])),)))
    assert rec.final.energy == pytest.approx(1.5 * 2.0 ** (-2.0 / 3.0), rel=1e-12)
    assert rec.work == pytest.approx(1.5 - 1.5 * 2.0 ** (-2.0 / 3.0), rel=1e-12)
    assert rec.d_e_res == 0.0
    assert rec.reversible


def test_isentropic_step_below_ground_is_range_error():
    # a state with S = -200: its isentrope reaches V = 1 below the ground bound
    st0 = state(1.5, math.exp(-200.0 - 1.5 * math.log(1.5)), [1.0])
    assert entropy_of(GAS, st0) == pytest.approx(-200.0, rel=1e-12)
    with pytest.raises(RangeError):
        run_schedule(GAS, st0, RES, Schedule((Isentropic(Parameters([1.0])),)))


def test_isentropic_step_energy_overflow_is_range_error():
    # with one degree of freedom the isentrope to V = 1e-300 needs E ~ e^1382
    gas1 = ideal_gas_model(1.0)
    st0 = state(1.0, 1.0, [1.0])
    with pytest.raises(RangeError):
        run_schedule(gas1, st0, RES, Schedule((Isentropic(Parameters([1e-300])),)))


def test_isothermal_step_reversible_ledger():
    rec = run_schedule(GAS, ST1, RES,
                       Schedule((IsothermalContact(target_params=Parameters([2.0])),)))
    assert rec.d_e_res == pytest.approx(-math.log(2.0), abs=1e-12)
    assert rec.sigma_gen == pytest.approx(0.0, abs=1e-12)
    assert rec.final.energy == pytest.approx(1.5, rel=1e-12)
    assert rec.work == pytest.approx(math.log(2.0), abs=1e-12)


def test_direct_contact_entropy_production():
    hot = wide_reservoir(2.0)
    rec = run_schedule(GAS, ST1, hot, Schedule((DirectContact(0.5),)))
    # oracle: analytic entropy difference of the gas
    delta_s = 1.5 * math.log(2.0 / 1.5)
    assert rec.sigma_gen == pytest.approx(delta_s - 0.25, abs=1e-12)
    assert rec.sigma_gen > 0
    assert not rec.reversible
    assert rec.work == 0.0


def test_direct_contact_wrong_direction_is_inadmissible():
    cold = wide_reservoir(0.5)
    with pytest.raises(InadmissibleStep):
        run_schedule(GAS, ST1, cold, Schedule((DirectContact(0.5),)))


def test_isothermal_entry_must_match_reservoir_temperature():
    with pytest.raises(InadmissibleStep):
        run_schedule(GAS, ST1, wide_reservoir(2.0),
                     Schedule((IsothermalContact(target_params=Parameters([2.0])),)))


# Schedules whose isothermal contact follows each kind of leg: the contact's
# entry check reads the temperature the previous leg's evaluation carried.
AFTER_LEG = {
    "isentropic": (GAS, state(1.5 * 2.0 ** (2.0 / 3.0), 1.0, [1.0]),
                   [Isentropic(Parameters([2.0])), IsothermalContact(target_params=Parameters([3.0])),
                    Isentropic(Parameters([1.0]))]),
    "direct": (GAS, state(0.75, 1.0, [1.0]),
               [DirectContact(0.75), IsothermalContact(target_params=Parameters([2.0]))]),
    "isothermal": (ReservoirModel(1.0, -5.0, 5.0), state(0.0, 1.0, [1.0]),
                   [IsothermalContact(target_energy=1.0), IsothermalContact(target_energy=-0.5)]),
}

#: (final energy, d_e_res, work, sigma_gen) of each, as the runner gave them
#: when it evaluated every temperature afresh
AFTER_LEG_LEDGERS = {
    "isentropic": ("0x1.8f6047b2b5be6p+1", "-0x1.9f323ecbf9850p-2", "-0x1.559080d2ab178p-2",
                   "0x0.0p+0"),
    "direct": ("0x1.8000000000000p+0", "-0x1.717217f7d1cf8p+0", "0x1.62e42fefa39efp-1",
               "0x1.28ac8fceeadc8p-2"),
    "isothermal": ("-0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0"),
}


@pytest.mark.parametrize("leg", sorted(AFTER_LEG))
def test_carried_temperatures_leave_the_ledger_bit_identical(leg):
    model, st0, steps = AFTER_LEG[leg]
    rec = run_schedule(model, st0, RES, Schedule(steps))
    got = (rec.final.energy, rec.d_e_res, rec.work, rec.sigma_gen)
    assert tuple(x.hex() for x in got) == AFTER_LEG_LEDGERS[leg]


@pytest.mark.parametrize("leg, st0, first, match", [
    # from T = 1 to T = 2^(-2/3)
    ("isentropic", ST1, Isentropic(Parameters([2.0])), "entered"),
    # from T = 1/2 to T = 5/6
    ("direct", state(0.75, 1.0, [1.0]), DirectContact(0.5), "entered"),
    # a contact exits at the reservoir temperature or raises, so the contact
    # after it enters there: off it, the first contact's own exit refuses
    ("isothermal", ST1, IsothermalContact(target_energy=2.0), "exited"),
])
def test_isothermal_contact_off_the_reservoir_temperature_after_each_leg(leg, st0, first,
                                                                         match):
    steps = (first, IsothermalContact(target_params=Parameters([3.0])))
    with pytest.raises(InadmissibleStep, match=match):
        run_schedule(GAS, st0, RES, Schedule(steps))


def test_isothermal_energy_transfer_between_reservoir_like_systems():
    model = ReservoirModel(1.0, -5.0, 5.0)
    st0 = state(0.0, 1.0, [1.0])
    rec = run_schedule(model, st0, RES,
                       Schedule((IsothermalContact(target_energy=1.0),)))
    assert rec.work == pytest.approx(0.0, abs=1e-12)
    assert rec.d_e_res == pytest.approx(-1.0, abs=1e-12)
    assert rec.sigma_gen == pytest.approx(0.0, abs=1e-12)


def test_correlated_state_is_refused():
    tangled = SystemState(1.5, Parameters([1.0]), ST1.comp, correlated=True)
    with pytest.raises(DomainError):
        run_schedule(GAS, tangled, RES, Schedule((Isentropic(Parameters([2.0])),)))


def test_energy_ledger_closes():
    rng = random.Random(5)
    samples = fuzz_standard_processes(GAS, ST1, RES, rng, n=100)
    for rec, _, _ in samples:
        closure = (rec.final.energy - rec.initial.energy) + rec.d_e_res + rec.work
        scale = max(1.0, abs(rec.final.energy), abs(rec.d_e_res), abs(rec.work))
        assert abs(closure) <= 1e-12 * scale


def test_first_law_work_path_independence():
    # two different weight processes sharing endpoints perform the same work
    via_half = Schedule((Isentropic(Parameters([0.5])), Isentropic(Parameters([2.0]))))
    direct = Schedule((Isentropic(Parameters([2.0])),))
    r1 = run_schedule(GAS, ST1, RES, via_half)
    r2 = run_schedule(GAS, ST1, RES, direct)
    assert r1.final.energy == pytest.approx(r2.final.energy, rel=1e-12)
    assert r1.work == pytest.approx(r2.work, rel=1e-12)


def staged_direct_contact(st2, theta):
    """From ST1: isentropic to a staging volume between ST1's over 16 and
    times 16 (``theta`` in [0, 1] places it on a log scale), one direct
    contact landing on the isentrope through ``st2``, isentropic to ``st2``."""
    params = ST1.params.with_volume(ST1.params.volume * 16.0 ** (2.0 * theta - 1.0))
    e_before = energy_of(GAS, entropy_of(GAS, ST1), params, ST1.comp, tol=1e-12)
    e_after = energy_of(GAS, entropy_of(GAS, st2), params, st2.comp, tol=1e-12)
    return Schedule((Isentropic(params), DirectContact(e_after - e_before),
                     Isentropic(st2.params)))


def test_energy_change_path_independent_across_schedule_pairs():
    # 100 pairs of standard processes sharing endpoints: the implied system
    # energy change -(work + dE_res) agrees across the two routes
    rng = np.random.default_rng(77)
    count = 0
    while count < 100:
        st2 = state(rng.uniform(0.8, 3.0), rng.uniform(0.6, 2.5), [1.0])
        try:
            staged = run_schedule(GAS, ST1, RES, staged_direct_contact(st2, rng.random()))
        except InadmissibleStep:
            continue
        if abs(staged.final.energy - st2.energy) > 1e-9:
            continue
        reversible = reversible_standard_process(GAS, ST1, st2, RES)
        d_e_staged = -(staged.work + staged.d_e_res)
        d_e_rev = -(reversible.work + reversible.d_e_res)
        assert d_e_staged == pytest.approx(d_e_rev, abs=1e-12)
        count += 1


def test_reversible_standard_process_gas_doubling():
    rec = reversible_standard_process(GAS, ST1, ST2, RES)
    assert rec.d_e_res == pytest.approx(-math.log(2.0), abs=1e-12)
    assert rec.sigma_gen == pytest.approx(0.0, abs=1e-9)
    assert rec.reversible


def test_reversible_standard_process_identity():
    rec = reversible_standard_process(GAS, ST1, ST1, RES)
    assert rec.d_e_res == pytest.approx(0.0, abs=1e-12)
    assert rec.work == pytest.approx(0.0, abs=1e-12)


def test_reverse_process_flips_reservoir_sign():
    fwd = reversible_standard_process(GAS, ST1, ST2, RES)
    rev = reversible_standard_process(GAS, ST2, ST1, RES)
    assert rev.d_e_res == pytest.approx(-fwd.d_e_res, abs=1e-12)


def test_generic_engine_path_matches_closed_form_path():
    # every closed-form shortcut hidden, to drive the generic root-finding paths
    veiled = masked(IdealGasMixture([Species("gas", 3.0)]),
                    hide=("evaluate", "ds_de", "ds_dv", "invert_entropy",
                          "energy_at_temperature", "volume_on_isentrope"))
    rec_fast = reversible_standard_process(GAS, ST1, ST2, RES)
    rec_slow = reversible_standard_process(veiled, ST1, ST2, RES)
    assert rec_slow.d_e_res == pytest.approx(rec_fast.d_e_res, abs=1e-9)
    assert rec_slow.work == pytest.approx(rec_fast.work, abs=1e-9)


def test_compositions_must_match():
    other = state(1.5, 1.0, [2.0])
    with pytest.raises(DomainError):
        reversible_standard_process(GAS, ST1, other, RES)


def test_compositions_match_within_an_absolute_1e_12_per_entry():
    # equal values in another object, and entries 5e-13 apart, connect; the
    # refusal keeps its message for 2e-12 apart and for another length
    st1 = state(1.5, 1.0, [1.0, 0.5])
    for amounts in ([1.0, 0.5], [1.0 + 5e-13, 0.5 - 5e-13]):
        rec = reversible_standard_process(GAS2, st1, state(1.2, 2.0, amounts), RES)
        assert rec.reversible
    for amounts in ([1.0, 0.5 + 2e-12], [1.0, 0.5, 0.0]):
        with pytest.raises(DomainError, match="^standard weight processes connect states "
                                              "of identical composition"):
            reversible_standard_process(GAS2, st1, state(1.2, 2.0, amounts), RES)


def _forced_three_legs(model, st1, st2, t_res):
    """The three-leg schedule with its first isentrope, whatever its length."""
    s1, s2 = entropy_of(model, st1), entropy_of(model, st2)
    return Schedule((
        Isentropic(_volume_on_isentrope(model, s1, t_res, st1)),
        IsothermalContact(target_params=_volume_on_isentrope(model, s2, t_res, st2)),
        Isentropic(st2.params),
    ))


def _standard_schedule(model, st1, st2, t_res):
    """The legs that ``_standard_legs`` decides for a standard process, as a schedule."""
    *_, first, contact = _standard_legs(model, st1, st2, t_res)
    legs = (IsothermalContact(target_params=contact), Isentropic(st2.params))
    return Schedule(legs if first is None else (Isentropic(first), *legs))


def _state_at(model, temperature, volume, amounts):
    comp = Composition(amounts)
    params = Parameters([volume])
    return SystemState(solve_energy_at_temperature(model, temperature, params, comp),
                       params, comp)


def test_a_standard_process_from_the_reservoir_temperature_runs_two_legs():
    # seeded gases and mixtures: the ledger without the zero-length first
    # isentrope reads the forced three-leg ledger's entropy within 1e-14 of S
    rng = np.random.default_rng(41)
    for _ in range(60):
        model = GAS if rng.random() < 0.5 else GAS2
        amounts = rng.uniform(0.1, 3.0, len(model.species))
        t_res = rng.uniform(0.2, 5.0)
        res = wide_reservoir(t_res)
        st1 = _state_at(model, t_res, rng.uniform(0.3, 3.0), amounts)
        st2 = SystemState(rng.uniform(1.0, 3.0) * st1.energy, Parameters([rng.uniform(0.3, 3.0)]),
                          st1.comp)
        schedule = _standard_schedule(model, st1, st2, t_res)
        assert [type(step) for step in schedule.steps] == [IsothermalContact, Isentropic]
        rec = reversible_standard_process(model, st1, st2, res)
        forced = run_schedule(model, st1, res, _forced_three_legs(model, st1, st2, t_res))
        assert rec.reversible and forced.reversible
        scale = 1e-14 * max(1.0, abs(entropy_of(model, st2)))
        assert abs(rec.d_e_res - forced.d_e_res) / t_res <= scale
        assert rec.final.energy == pytest.approx(st2.energy, rel=1e-12)


@pytest.mark.parametrize("offset", [1e-6, -1e-6])
def test_a_standard_process_1e_6_off_the_reservoir_temperature_runs_three_legs(offset):
    st1 = _state_at(GAS, 1.0 + offset, 1.0, [1.0])
    schedule = _standard_schedule(GAS, st1, ST2, 1.0)
    assert [type(step) for step in schedule.steps] == [Isentropic, IsothermalContact,
                                                       Isentropic]
    rec = reversible_standard_process(GAS, st1, ST2, RES)
    assert rec.reversible
    assert -rec.d_e_res == pytest.approx(entropy_of(GAS, ST2) - entropy_of(GAS, st1),
                                         abs=1e-12)


def _ledger_bits(record):
    """Every number of a ledger, as its exact bits."""
    numbers = (record.d_e_res, record.work, record.sigma_gen, record.final.energy,
               *record.final.params.beta, *record.final.comp.amounts)
    return [x.hex() for x in numbers], record.reversible, record.initial


def test_the_standard_process_and_the_runner_give_bit_identical_ledgers():
    # the standard process calls the runner's primitives on its legs: over
    # the same legs, from T_R (two legs) and away from it (three), both
    # write the same ledger to the last bit
    rng = np.random.default_rng(43)
    two = three = 0
    for _ in range(80):
        model = GAS if rng.random() < 0.5 else GAS2
        amounts = rng.uniform(0.1, 3.0, len(model.species))
        t_res = rng.uniform(0.2, 5.0)
        res = wide_reservoir(t_res)
        t1 = t_res if rng.random() < 0.5 else t_res * rng.uniform(0.3, 3.0)
        st1 = _state_at(model, t1, rng.uniform(0.3, 3.0), amounts)
        st2 = SystemState(rng.uniform(1.0, 3.0) * st1.energy, Parameters([rng.uniform(0.3, 3.0)]),
                          st1.comp)
        schedule = _standard_schedule(model, st1, st2, t_res)
        two += len(schedule.steps) == 2
        three += len(schedule.steps) == 3
        rec = reversible_standard_process(model, st1, st2, res)
        assert _ledger_bits(rec) == _ledger_bits(run_schedule(model, st1, res, schedule))
    assert two >= 20 and three >= 20


def test_reservoir_range_limits_the_exchange():
    tight = ThermalReservoir(1.0, 0.0, -0.1, 0.1)
    with pytest.raises(RangeExceeded):
        reversible_standard_process(GAS, ST1, ST2, tight)


def test_staged_direct_contacts_respect_and_approach_the_reversible_bound():
    # every staged direct contact that reaches ST2 leaves the reservoir at or
    # above -T_R (S2 - S1), strictly (it is irreversible), and the best of a
    # fine scan over the staging volume comes within 5e-3 of the bound
    s1, s2 = entropy_of(GAS, ST1), entropy_of(GAS, ST2)
    samples = []
    for theta in np.linspace(0.0, 1.0, 2001):
        try:
            rec = run_schedule(GAS, ST1, RES, staged_direct_contact(ST2, theta))
        except InadmissibleStep:
            continue
        if abs(rec.final.energy - ST2.energy) <= 1e-9:
            samples.append((rec, s1, s2))
    check = theorem_lower_bound_check(samples, RES.temperature)
    assert check.passed and check.n_trials > 500 and check.worst > 0.0
    bound = -RES.temperature * math.log(2.0)
    best = min(rec.d_e_res for rec, _, _ in samples)
    assert 0.0 < best - bound < 5e-3


def test_measured_entropy_difference_matches_relation():
    measured = measure_entropy_difference(GAS, ST1, ST2, RES)
    analytic = entropy_of(GAS, ST2) - entropy_of(GAS, ST1)
    assert measured == pytest.approx(analytic, abs=1e-9)
    assert measured == pytest.approx(math.log(2.0), abs=1e-12)


def test_measured_entropy_difference_identity():
    assert measure_entropy_difference(GAS, ST1, ST1, RES) == pytest.approx(0.0, abs=1e-12)


def test_measured_entropy_difference_reservoir_independent():
    values = [
        measure_entropy_difference(GAS, ST1, ST2, wide_reservoir(t))
        for t in (0.5, 1.0, 2.0)
    ]
    assert max(values) - min(values) <= 1e-9


def test_measure_entropy_anchoring():
    s_ref = entropy_of(GAS, ST1)
    s1 = measure_entropy(GAS, ST2, ST1, s_ref, RES)
    assert s1 == pytest.approx(s_ref + math.log(2.0), abs=1e-9)
    assert measure_entropy(GAS, ST1, ST1, s_ref, RES) == pytest.approx(s_ref, abs=1e-12)


def test_measure_entropy_gauge_shift():
    shift = 2.375
    s_ref = entropy_of(GAS, ST1)
    a = measure_entropy(GAS, ST2, ST1, s_ref, RES)
    b = measure_entropy(GAS, ST2, ST1, s_ref + shift, RES)
    assert b - a == pytest.approx(shift, abs=1e-12)


def test_temperature_ratio_quarter():
    cold, hot = wide_reservoir(0.5), wide_reservoir(2.0)
    ratio = measure_temperature_ratio(cold, hot, GAS, ST1, ST2)
    assert ratio == pytest.approx(0.25, abs=1e-9)


def test_temperature_ratio_same_reservoir_is_one():
    ratio = measure_temperature_ratio(RES, wide_reservoir(1.0), GAS, ST1, ST2)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_temperature_ratio_independent_of_probe_states_and_system():
    cold, hot = wide_reservoir(0.5), wide_reservoir(2.0)
    rng = np.random.default_rng(9)
    mixture = IdealGasMixture([Species("a", 3.0), Species("b", 5.0, e0=-0.4)])
    comp2 = Composition([1.0, 0.7])
    probes = [GAS, ideal_gas_model(5.0), mixture]
    ratios = []
    for _ in range(10):
        model = probes[int(rng.integers(0, len(probes)))]
        comp = comp2 if model is mixture else ST1.comp
        a = SystemState(rng.uniform(1.0, 4.0), Parameters([rng.uniform(0.5, 4.0)]), comp)
        b = SystemState(rng.uniform(1.0, 4.0), Parameters([rng.uniform(0.5, 4.0)]), comp)
        if abs(entropy_of(model, a) - entropy_of(model, b)) < 1e-3:
            continue
        ratios.append(measure_temperature_ratio(cold, hot, model, a, b))
    assert len(ratios) >= 8
    assert max(ratios) - min(ratios) <= 1e-9


def test_temperature_ratio_degenerate_states():
    with pytest.raises(DegenerateStates):
        measure_temperature_ratio(wide_reservoir(0.5), wide_reservoir(2.0), GAS, ST1, ST1)


def test_assign_temperature_reproduces_declared():
    ref = ThermalReservoir(273.16, 0.0, -1e9, 1e9)
    target = ThermalReservoir(300.476, 0.0, -1e9, 1e9)
    assigned = assign_temperature(target, ref, 273.16)
    assert assigned == pytest.approx(300.476, rel=1e-9)


def test_assign_temperature_reference_maps_to_itself():
    ref = ThermalReservoir(273.16, 0.0, -1e9, 1e9)
    assert assign_temperature(ref, ref, 273.16) == pytest.approx(273.16, rel=1e-12)


def test_assign_temperature_rescales_with_reference_value():
    ref = wide_reservoir(1.0)
    target = wide_reservoir(1.7)
    t1 = assign_temperature(target, ref, 1.0)
    t2 = assign_temperature(target, ref, 10.0)
    assert t2 == pytest.approx(10.0 * t1, rel=1e-12)


def test_nondecrease_isentropic_only_is_reversible():
    rec = run_schedule(GAS, ST1, RES, Schedule((Isentropic(Parameters([2.0])),)))
    result = nondecrease_check([rec], GAS)
    assert result.passed and "mismatches=0" in result.detail
    assert rec.reversible
    assert result.worst == pytest.approx(0.0, abs=1e-12)


def test_nondecrease_stirring_record():
    # stirring: the weight pumps energy w into the gas at fixed volume, the
    # stirred state relaxes; the entropy rise is S(E + w) - S(E) > 0
    w_in = 0.5
    final = state(ST1.energy + w_in, 1.0, [1.0])
    delta_s = entropy_of(GAS, final) - entropy_of(GAS, ST1)
    rec = ProcessRecord(ST1, final, 0.0, -w_in, delta_s, False)
    result = nondecrease_check([rec], GAS)
    assert result.passed
    expected = 1.5 * math.log((1.5 + w_in) / 1.5)
    assert result.worst == pytest.approx(expected, abs=1e-12)
    assert result.worst > 0
    # the same entropy rise filed as a reversible record is a classification mismatch
    claimed_reversible = ProcessRecord(ST1, final, 0.0, -w_in, 0.0, True)
    mismatch = nondecrease_check([claimed_reversible], GAS)
    assert not mismatch.passed and "mismatches=1" in mismatch.detail


def _reversed(record, sigma_gen):
    """The record run backwards, from its final state to its initial one,
    claiming the entropy production ``sigma_gen``."""
    return ProcessRecord(record.final, record.initial, -record.d_e_res, -record.work,
                         sigma_gen, abs(sigma_gen) <= 1e-9)


def test_nondecrease_check_fails_a_record_that_loses_entropy():
    # a dissipative weight process from the runner, filed backwards: the gas
    # ends with less entropy than it started with.  Its claimed production
    # stays positive, so the classification agrees and only the loss fails
    records = fuzz_weight_processes(GAS, ST1, RES, random.Random(5), n=50)
    forward = max(records, key=lambda rec: rec.sigma_gen)
    assert forward.sigma_gen > 1e-3
    backward = _reversed(forward, forward.sigma_gen)
    loss = entropy_of(GAS, forward.initial) - entropy_of(GAS, forward.final)
    result = nondecrease_check([*records, backward], GAS)
    assert result.passed is False
    assert result.worst == loss < -1e-3
    assert result.detail == "reversibility mismatches=0"
    assert nondecrease_check(records, GAS).passed is True


def test_lower_bound_check_fails_a_record_below_the_bound():
    # a reversible standard process from the runner sits on the bound
    # dE_res = -T_R (S2 - S1); the same record with 1e-6 T_R less reservoir
    # energy lies below it, while it stays classified as reversible
    t_res = 2.0
    res = wide_reservoir(t_res)
    rec = reversible_standard_process(GAS, ST1, ST2, res)
    s1, s2 = entropy_of(GAS, ST1), entropy_of(GAS, ST2)
    assert theorem_lower_bound_check([(rec, s1, s2)], t_res).passed is True
    below = ProcessRecord(rec.initial, rec.final, rec.d_e_res - 1e-6 * t_res, rec.work,
                          rec.sigma_gen, rec.reversible)
    result = theorem_lower_bound_check([(rec, s1, s2), (below, s1, s2)], t_res)
    assert result.passed is False
    assert result.worst == pytest.approx(-1e-6 * t_res, rel=1e-6)
    assert result.detail == "equality/reversibility mismatches=0"


def test_weight_process_fuzz_keeps_no_reservoir_charged_record():
    rng = random.Random(5)
    records = fuzz_weight_processes(GAS, ST1, RES, rng, n=50)
    assert len(records) == 50
    assert all(abs(rec.d_e_res) <= 1e-12 * max(1.0, abs(ST1.energy)) for rec in records)
    charged = reversible_standard_process(GAS, ST1, ST2, RES)
    assert abs(charged.d_e_res) > 1e-3  # what the fuzzer leaves out


def test_theorem_lower_bound_small_fuzz():
    rng = random.Random(12)
    samples = fuzz_standard_processes(GAS, ST1, RES, rng, n=300)
    assert len(samples) == 300
    assert theorem_lower_bound_check(samples, RES.temperature).passed


def test_irreversible_processes_beat_the_bound_strictly():
    rng = random.Random(13)
    samples = fuzz_standard_processes(GAS, ST1, RES, rng, n=200)
    saw_irreversible = False
    for rec, s1, s2 in samples:
        if rec.sigma_gen > 1e-9:
            saw_irreversible = True
            assert -rec.d_e_res / RES.temperature < s2 - s1
    assert saw_irreversible


def test_lower_bound_equality_is_relative_to_the_reservoir_temperature():
    # a direct contact toward T_R = 1e-6 produces sigma = 2.2e-4, so its gap
    # T_R sigma = 2.2e-10 lies below an absolute 1e-9 but is off the bound
    cold = ThermalReservoir(1e-6)
    rec = run_schedule(GAS, state(1.53e-6, 1.0, [1.0]), cold,
                       Schedule((DirectContact(-1.5e-8),)))
    s1, s2 = entropy_of(GAS, rec.initial), entropy_of(GAS, rec.final)
    assert 1e-4 < rec.sigma_gen < 1e-3 and not rec.reversible
    result = theorem_lower_bound_check([(rec, s1, s2)], cold.temperature)
    assert result.passed and "mismatches=0" in result.detail


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6])
def test_theorem_lower_bound_fuzz_at_any_temperature_scale(scale):
    # the suite's gas and state with energy and T_R times ``scale``: the
    # sampler still draws direct contacts, and the check still passes
    samples = fuzz_standard_processes(GAS, state(1.5 * scale, 1.0, [1.0]),
                                      ThermalReservoir(scale), random.Random(0), n=200)
    assert len(samples) == 200
    assert any(rec.sigma_gen > 1e-9 for rec, _, _ in samples)
    assert theorem_lower_bound_check(samples, scale).passed


def test_weight_process_fuzz_nondecrease():
    rng = random.Random(14)
    records = fuzz_weight_processes(GAS, ST1, RES, rng, n=500)
    assert len(records) == 500
    assert nondecrease_check(records, GAS).passed


def test_pmm2_exhaustive():
    result = pmm2_exhaustive_check(GAS, ST1, RES)
    assert result.passed
    assert result.n_trials > 0


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e12])
def test_pmm2_checks_the_same_schedules_at_any_scale(scale):
    # the suite's gas and state with energy and T_R times ``scale``, or with
    # energy and amount times ``scale``: as many schedules qualify as at
    # scale 1.  (At 1e-12 the gas's ground bound, an absolute GROUND_EPS
    # above its zero, refuses the expanded states.)
    assert pmm2_exhaustive_check(GAS, ST1, RES).n_trials == 20
    for st0, reservoir in ((state(1.5 * scale, 1.0, [1.0]), ThermalReservoir(scale)),
                           (state(1.5 * scale, 1.0, [scale]), ThermalReservoir(1.0))):
        result = pmm2_exhaustive_check(GAS, st0, reservoir)
        assert result.passed and result.n_trials == 20


def test_additivity_composite_measurement():
    gas5 = ideal_gas_model(5.0)
    a1, a2 = state(1.0, 1.0, [1.0]), state(2.0, 1.5, [1.0])
    b1, b2 = state(2.5, 1.0, [1.0]), state(1.2, 0.7, [1.0])
    combined = measure_entropy_difference_composite(
        [(GAS, a1, a2), (gas5, b1, b2)], RES
    )
    separate = (measure_entropy_difference(GAS, a1, a2, RES)
                + measure_entropy_difference(gas5, b1, b2, RES))
    assert combined == pytest.approx(separate, abs=1e-12)
    analytic = (entropy_of(GAS, a2) - entropy_of(GAS, a1)
                + entropy_of(gas5, b2) - entropy_of(gas5, b1))
    assert combined == pytest.approx(analytic, abs=1e-9)


def test_schedule_must_be_nonempty():
    with pytest.raises(ValueError):
        Schedule(())


def test_isothermal_contact_needs_exactly_one_target():
    with pytest.raises(ValueError):
        IsothermalContact()
    with pytest.raises(ValueError):
        IsothermalContact(target_params=Parameters([1.0]), target_energy=2.0)
