"""Weight processes and standard weight processes as schedules of primitives.

Each primitive is a state-to-state map evaluated in closed form against the
model's fundamental relation (a reversible process need not be slow, so no
time discretization is involved).  The runner keeps exact ledgers of reservoir
energy, weight work and entropy production, and the measurement operations
read entropy and temperature off those ledgers alone.  Each primitive is one
function from a state and its (T, S) to the next state and its ledger
entries: ``run_schedule`` dispatches a schedule's steps to them, and a
reversible standard process calls them for its legs directly, building no
step records.  One that starts at the reservoir temperature leaves out its
first, zero-length isentrope.
"""

from __future__ import annotations

from typing import Union

from .errors import (
    DegenerateStates,
    DomainError,
    FrozenRecord,
    InadmissibleStep,
)
from .matter_models import (
    MatterModel,
    Parameters,
    SystemState,
    ThermalReservoir,
    energy_of,
    entropy_of,
    ideal_gas_model,
    reservoir_exchange,
    solve_energy_at_temperature,
    state,
)

#: Entropy slack below which a process counts as reversible.
TOL_REV = 1e-9

#: Tolerance on |T - T_R| at entry and exit of an isothermal contact.
TOL_T = 1e-9

#: Entropy drift allowed along an isentropic leg.
TOL_S = 1e-12


class Isentropic(FrozenRecord):
    """Change parameters at constant entropy; energy balance goes to the weight."""

    __slots__ = ("target_params",)

    def __init__(self, target_params: Parameters):
        object.__setattr__(self, "target_params", target_params)


class IsothermalContact(FrozenRecord):
    """Change state in reversible contact with the reservoir at T = T_R.

    Exactly one of ``target_params`` (move along the isotherm to new
    parameters) or ``target_energy`` (pure energy exchange at fixed
    parameters, for systems whose temperature does not vary with energy)
    must be given.
    """

    __slots__ = ("target_params", "target_energy")

    def __init__(self, target_params: Parameters | None = None,
                 target_energy: float | None = None):
        if (target_params is None) == (target_energy is None):
            raise ValueError("give exactly one of target_params or target_energy")
        object.__setattr__(self, "target_params", target_params)
        object.__setattr__(self, "target_energy", target_energy)


class DirectContact(FrozenRecord):
    """Transfer energy ``heat`` from reservoir to system at constant parameters,
    regardless of temperature mismatch.  Admissible only when the transfer does
    not destroy entropy."""

    __slots__ = ("heat",)

    def __init__(self, heat: float):
        object.__setattr__(self, "heat", heat)


Primitive = Union[Isentropic, IsothermalContact, DirectContact]


class Schedule(FrozenRecord):
    """Ordered, non-empty sequence of primitives."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(steps)
        if not steps:
            raise ValueError("schedule must contain at least one step")
        object.__setattr__(self, "steps", steps)


class ProcessRecord(FrozenRecord):
    """Ledger of one executed process.

    ``d_e_res`` is the reservoir energy change, ``work`` the work done by the
    system on the weight, ``sigma_gen`` the entropy produced.  The energy
    bookkeeping closes: dE_system + d_e_res + work = 0.
    """

    __slots__ = ("initial", "final", "d_e_res", "work", "sigma_gen", "reversible")

    def __init__(self, initial: SystemState, final: SystemState, d_e_res: float,
                 work: float, sigma_gen: float, reversible: bool):
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "d_e_res", d_e_res)
        object.__setattr__(self, "work", work)
        object.__setattr__(self, "sigma_gen", sigma_gen)
        object.__setattr__(self, "reversible", reversible)


def _require_uncorrelated(st: SystemState) -> None:
    if st.correlated:
        raise DomainError("entropy is undefined for a state correlated with its environment")


def _volume_on_isentrope(model: MatterModel, entropy: float, temperature: float,
                         st: SystemState) -> Parameters:
    """Parameters at which the isentrope through ``entropy`` has the given temperature."""
    return st.params.with_volume(
        model.volume_on_isentrope(entropy, temperature, st.params, st.comp))


def _evaluate(model: MatterModel, st: SystemState,
              with_temperature: bool) -> tuple[float | None, float]:
    """(T, S) of a state from one validation; T is None unless asked for."""
    if with_temperature:
        return model.evaluate(st.energy, st.params, st.comp)
    return None, entropy_of(model, st)


def _isentrope(model: MatterModel, st: SystemState, s: float, params: Parameters,
               with_t: bool) -> tuple:
    """Isentropic step from ``st``, of entropy ``s``, to ``params``; the energy
    balance goes to the weight.  Returns (next state, its T or None, its S,
    work on the weight, heat from the reservoir)."""
    e_next = energy_of(model, s, params, st.comp, tol=1e-12)
    nxt = SystemState(e_next, params, st.comp)
    t_next, s_next = _evaluate(model, nxt, with_t)
    if abs(s_next - s) > TOL_S * max(1.0, abs(s)):
        raise InadmissibleStep("isentropic step failed to conserve entropy")
    return nxt, t_next, s_next, st.energy - e_next, 0.0


def _isothermal_contact(model: MatterModel, st: SystemState, t: float, s: float,
                        t_res: float, params: Parameters | None,
                        energy: float | None = None) -> tuple:
    """Reversible contact from ``st``, of temperature ``t`` and entropy ``s``,
    with the reservoir at ``t_res``: along the isotherm to ``params``, or to
    ``energy`` at fixed parameters.  Returns what ``_isentrope`` does."""
    if abs(t - t_res) > TOL_T * max(1.0, t_res):
        raise InadmissibleStep(
            f"isothermal contact entered at T={t:.9g}, reservoir at {t_res:.9g}"
        )
    if params is not None:
        e_next = solve_energy_at_temperature(model, t_res, params, st.comp)
    else:
        params, e_next = st.params, energy
    nxt = SystemState(e_next, params, st.comp)
    t_next, s_next = _evaluate(model, nxt, True)
    if abs(t_next - t_res) > TOL_T * max(1.0, t_res):
        raise InadmissibleStep(
            f"isothermal contact exited at T={t_next:.9g}, reservoir at {t_res:.9g}"
        )
    heat = t_res * (s_next - s)  # reversible exchange
    return nxt, t_next, s_next, (st.energy - e_next) + heat, heat


def _direct_contact(model: MatterModel, st: SystemState, s: float, t_res: float,
                    heat: float, with_t: bool) -> tuple:
    """Energy ``heat`` from the reservoir at ``t_res`` into ``st``, of entropy
    ``s``, at fixed parameters; refused where it destroys entropy.  Returns
    what ``_isentrope`` does."""
    nxt = SystemState(st.energy + heat, st.params, st.comp)
    t_next, s_next = _evaluate(model, nxt, with_t)
    sigma_step = (s_next - s) - heat / t_res
    if sigma_step < -TOL_REV:
        raise InadmissibleStep(f"direct contact would destroy entropy ({sigma_step:.3g})")
    return nxt, t_next, s_next, 0.0, heat


def _record(st0: SystemState, st: SystemState, reservoir: ThermalReservoir,
            res: ThermalReservoir, s0: float, s: float, work: float) -> ProcessRecord:
    """The ledger of a process from ``st0``, of entropy ``s0``, to ``st``, of
    entropy ``s``, that took ``reservoir`` to ``res`` and did ``work``."""
    d_e_res = res.energy - reservoir.energy
    sigma = (s - s0) + d_e_res / reservoir.temperature
    return ProcessRecord(initial=st0, final=st, d_e_res=d_e_res, work=work, sigma_gen=sigma,
                         reversible=abs(sigma) <= TOL_REV)


def run_schedule(model: MatterModel, st0: SystemState, reservoir: ThermalReservoir,
                 schedule: Schedule) -> ProcessRecord:
    """Execute a schedule and return its ledger.

    Every step must be admissible from its predecessor's end state; a step
    that would produce negative entropy (beyond TOL_REV) or start an
    isothermal contact away from the reservoir temperature raises
    InadmissibleStep.  DomainError and RangeExceeded propagate from the
    model and the reservoir.
    """
    _require_uncorrelated(st0)
    t_res = reservoir.temperature
    # one checked evaluation per state, with T where an isothermal contact
    # starts or ends: the contact's entry check reads the carried value
    contact = [isinstance(step, IsothermalContact) for step in schedule.steps]
    wants_t = [a or b for a, b in zip(contact, contact[1:] + [False])]
    t, s0 = _evaluate(model, st0, contact[0])
    st, s, res, work = st0, s0, reservoir, 0.0
    for step, with_t in zip(schedule.steps, wants_t):
        if isinstance(step, Isentropic):
            leg = _isentrope(model, st, s, step.target_params, with_t)
        elif isinstance(step, IsothermalContact):
            leg = _isothermal_contact(model, st, t, s, t_res, step.target_params,
                                      step.target_energy)
        elif isinstance(step, DirectContact):
            leg = _direct_contact(model, st, s, t_res, step.heat, with_t)
        else:
            raise TypeError(f"unknown primitive {step!r}")
        st, t, s, w, heat = leg
        work += w
        if heat:
            res = reservoir_exchange(res, -heat)
    return _record(st0, st, reservoir, res, s0, s, work)


def _standard_legs(model: MatterModel, st1: SystemState, st2: SystemState, t_res: float,
                   ts1: tuple | None = None, s2: float | None = None) -> tuple:
    """Where the legs of ``reversible_standard_process`` end: (T1, S1, the
    parameters that end the first isentrope, or None where st1 passes the
    contact's entry test and the process runs two legs, the parameters that
    end the isothermal contact).  ``ts1`` and ``s2``, where given, are the
    first state's (T, S) and the second state's S."""
    _require_uncorrelated(st1)
    _require_uncorrelated(st2)
    x, y = st1.comp.amounts, st2.comp.amounts
    if x != y and not (len(x) == len(y) and all(abs(p - q) <= 1e-12 for p, q in zip(x, y))):
        raise DomainError(
            "standard weight processes connect states of identical composition; "
            "anchor differing compositions through a reference environment"
        )
    t1, s1 = model.evaluate(st1.energy, st1.params, st1.comp) if ts1 is None else ts1
    if s2 is None:
        s2 = entropy_of(model, st2)
    contact = _volume_on_isentrope(model, s2, t_res, st2)
    # st1 passes the contact's entry test: a first isentrope would have zero length
    if abs(t1 - t_res) <= TOL_T * max(1.0, t_res):
        return t1, s1, None, contact
    return t1, s1, _volume_on_isentrope(model, s1, t_res, st1), contact


def reversible_standard_process(model: MatterModel, st1: SystemState,
                                st2: SystemState,
                                reservoir: ThermalReservoir) -> ProcessRecord:
    """Connect two states by the three-leg reversible standard weight process:
    isentropic to the reservoir temperature, isothermal contact, isentropic
    to the target; a process that starts at the reservoir temperature runs
    the last two legs.  The reservoir picks up exactly -T_R (S2 - S1)."""
    return _reversible_standard_process(model, st1, st2, reservoir)


def _reversible_standard_process(model: MatterModel, st1: SystemState, st2: SystemState,
                                 reservoir: ThermalReservoir, ts1: tuple | None = None,
                                 s2: float | None = None) -> ProcessRecord:
    """``reversible_standard_process`` for a caller that has just evaluated
    the states: ``ts1`` and ``s2`` as in ``_standard_legs``.  It runs the
    primitives of ``run_schedule`` on the legs, with no step records."""
    t_res = reservoir.temperature
    t, s1, first, contact = _standard_legs(model, st1, st2, t_res, ts1, s2)
    st, s, work = st1, s1, 0.0
    if first is not None:
        st, t, s, w, _ = _isentrope(model, st, s, first, True)
        work += w
    st, t, s, w, heat = _isothermal_contact(model, st, t, s, t_res, contact)
    work += w
    res = reservoir_exchange(reservoir, -heat)
    st, t, s, w, _ = _isentrope(model, st, s, st2.params, False)
    work += w
    gap = abs(st.energy - st2.energy)
    if gap > 1e-9 * max(1.0, abs(st2.energy)):
        raise InadmissibleStep(f"standard process missed the target state by {gap:.3g}")
    return _record(st1, st, reservoir, res, s1, s, work)


def measure_entropy_difference(model: MatterModel, st1: SystemState,
                               st2: SystemState,
                               reservoir: ThermalReservoir) -> float:
    """Entropy difference S2 - S1 read off the reservoir ledger alone.

    Runs a reversible standard weight process and returns -dE_res / T_R; the
    system's fundamental relation is used to drive the process, never to
    produce the returned number.
    """
    record = reversible_standard_process(model, st1, st2, reservoir)
    return -record.d_e_res / reservoir.temperature


def measure_entropy(model: MatterModel, st1: SystemState,
                    ref_state: SystemState, s_ref: float,
                    reservoir: ThermalReservoir) -> float:
    """Entropy of a state anchored to a reference state with assigned value."""
    record = reversible_standard_process(model, ref_state, st1, reservoir)
    return s_ref - record.d_e_res / reservoir.temperature


def measure_entropy_difference_composite(parts, reservoir: ThermalReservoir) -> float:
    """Entropy difference of a composite from one reservoir ledger.

    ``parts`` is a sequence of (model, st1, st2) triples, one per subsystem;
    the reversible processes run back to back against the same reservoir, so
    the single ledger accumulates every exchange.
    """
    res = reservoir
    for model, st1, st2 in parts:
        record = reversible_standard_process(model, st1, st2, res)
        res = reservoir_exchange(res, record.d_e_res)
    return -(res.energy - reservoir.energy) / reservoir.temperature


def measure_temperature_ratio(res1: ThermalReservoir, res2: ThermalReservoir,
                              model: MatterModel, st1: SystemState,
                              st2: SystemState) -> float:
    """Ratio of reservoir energy changes over the same state pair.

    Equals T_1 / T_2 and is independent of the probe states.  Raises
    DegenerateStates when the pair carries no entropy change.
    """
    rec1 = reversible_standard_process(model, st1, st2, res1)
    rec2 = reversible_standard_process(model, st1, st2, res2)
    if abs(rec2.d_e_res) < 1e-300 or abs(rec1.d_e_res) < 1e-300:
        raise DegenerateStates("probe states have equal entropy; ratio undefined")
    return rec1.d_e_res / rec2.d_e_res


_PROBE_MODEL = ideal_gas_model(3.0)
_PROBE_STATES = (state(1.5, 1.0, [1.0]), state(1.5, 2.0, [1.0]))


def assign_temperature(reservoir: ThermalReservoir, ref_reservoir: ThermalReservoir,
                       t_ref: float) -> float:
    """Temperature assigned to a reservoir from a reference reservoir.

    Both reservoirs interact with the same built-in probe state pair; the
    assignment is t_ref times the ratio of their energy changes, positive,
    and defined only up to the arbitrary scale fixed by t_ref.
    """
    if t_ref <= 0:
        raise ValueError("reference temperature must be positive")
    st1, st2 = _PROBE_STATES
    ratio = measure_temperature_ratio(reservoir, ref_reservoir, _PROBE_MODEL, st1, st2)
    return t_ref * ratio
