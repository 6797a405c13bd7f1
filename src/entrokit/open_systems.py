"""Energy and entropy of open-system states via closed proxies and an
elemental-species reference environment.

An open state (arbitrary composition) is reproduced as a closed proxy with
that composition; its entropy is anchored by a reversible measurement against
the environment's reservoir, and compositions with different constituents
become comparable because every scale traces back to the same per-species
reference states at the environment's temperature and pressure.  The gauge,
reference proxy state, its (T, S) and anchored entropy of a composition are
kept, so a table that revisits a composition runs only the measurement of
each state; the equilibrium compositions of a reactive table, which seldom
recur, are not kept.  Everything here is in plain floats.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import product
from operator import mul

from .equilibrium import EquilibriumProblem, _pressure, stable_equilibrium
from .errors import (
    DomainError,
    FrozenRecord,
    InadmissibleStep,
    Infeasible,
    NonConvergence,
    NotExpressible,
    RangeError,
    RangeExceeded,
)
from .matter_models import (
    MatterModel,
    Parameters,
    SystemState,
    ThermalReservoir,
    _fd_slopes,
    energy_of,
    entropy_of,
    solve_energy_at_temperature,
    temperature_of,
)
from .process_engine import _reversible_standard_process
from .stoichiometry import (
    Composition,
    ReactionNetwork,
    TOL_COMPAT,
    _float_vector,
    validate_elemental_set,
)

#: One unit amount of a single species: the content of each reference box.
UNIT = Composition([1.0])

#: Reference records one environment keeps, least recently used out first.
RECORDS = 32


class ReferenceEnvironment(FrozenRecord):
    """Per-species reference states and assigned values at (T0, p0).

    Each elemental species lives in its own box, far from the others, in a
    stable equilibrium state at the environment temperature and pressure.
    ``elemental`` holds the indices of the elemental species, and
    ``species_models`` one single-species model per index; ``e0_assigned`` /
    ``s0_assigned`` are the per-unit-amount values given to those states,
    one float per elemental species; the chemical convention sets
    E0 + p0 V0 = 0 and S0 = 0.  The set's ``validate_elemental_set`` report
    is kept for the content maps, and values that depend only on the
    environment are computed once, on first use, and kept with the
    (immutable) instance; so is the reference record of each of the last
    ``RECORDS`` (model, composition) pairs it anchored.
    """

    __slots__ = ("constituents", "elemental", "network", "species_models", "t0", "p0",
                 "e0_assigned", "s0_assigned", "__dict__")  # the dict holds the cached values

    def __init__(self, constituents, elemental, network: ReactionNetwork, species_models,
                 t0: float, p0: float, e0_assigned, s0_assigned):
        _check_conditions(t0, p0)
        report = validate_elemental_set(elemental, network)
        if not report.valid:
            raise NotExpressible(
                f"elemental set invalid (complete={report.complete}, "
                f"independent={report.independent})"
            )
        e0 = _float_vector(e0_assigned, "assigned energies")
        s0 = _float_vector(s0_assigned, "assigned entropies")
        if len(e0) != len(elemental) or len(s0) != len(elemental):
            raise ValueError("assigned values must align with the elemental species")
        self._set_constituents(self, tuple(constituents))
        self._set_elemental(self, tuple(int(i) for i in elemental))
        self._set_network(self, network)
        self._set_species_models(self, tuple(species_models))
        self._set_t0(self, t0)
        self._set_p0(self, p0)
        self._set_e0_assigned(self, e0)
        self._set_s0_assigned(self, s0)
        object.__setattr__(self, "_report", report)  # in the dict: not a field

    @cached_property
    def physical_references(self) -> tuple:
        """(energy, entropy) of one unit of each elemental species at (T0, p0),
        model scale, in declared elemental order."""
        return _physical_references(self.species_models, self._box_states)

    @cached_property
    def _box_states(self) -> list:
        """Each elemental species' box, solved once: the conventions keep the
        boxes they solved for their assigned values."""
        return _boxes(self.species_models, self.t0, self.p0)

    def reservoir(self) -> ThermalReservoir:
        return self._reservoir

    @cached_property
    def _reservoir(self) -> ThermalReservoir:
        return ThermalReservoir(self.t0, 0.0, -math.inf, math.inf)

    def decompose(self, comp: Composition) -> tuple[tuple, tuple]:
        """Elemental content w and reaction coordinates eps forming ``comp``,
        each a tuple of floats.

        Solves the non-elemental rows of n = n_elem(w) + nu eps; raises
        NotExpressible where that needs negative elemental amounts.
        """
        w, n = self._content(comp), comp.amounts
        return (tuple([0.0 if x < 0.0 else x for x in w]),
                tuple([sum(map(mul, row, n)) for row in self.content_maps[1]]))

    def _content(self, comp: Composition) -> list:
        """The elemental content w of ``comp``, before ``decompose`` clamps
        its rounding below 0.  The sign refusal tests against TOL_COMPAT
        times the total amount (at least 1), as the rounding of the maps
        grows with the amounts."""
        n = comp.amounts
        if len(n) != len(self.constituents):
            raise NotExpressible(
                f"composition has {len(n)} entries, environment declares "
                f"{len(self.constituents)}"
            )
        w = [sum(map(mul, row, n)) for row in self.content_maps[0]]
        bound = -TOL_COMPAT * max(1.0, comp.total)
        if any([x < bound for x in w]):
            raise NotExpressible("composition would need negative elemental amounts")
        return w

    @cached_property
    def content_maps(self) -> tuple[tuple, tuple]:
        """Rows, as tuples of floats, of the maps, linear in the amounts n, to
        the signed elemental content w (declared elemental order) and to the
        reaction coordinates eps of n = n_elem(w) + nu eps.

        Column k of the eps map holds the coordinates ``validate_elemental_set``
        found to form one unit of outside constituent k (zeros for an elemental
        k): eps is the least-squares solution of the non-elemental rows through
        their pseudo-inverse at the relative cutoff RCOND, and w what is left.
        """
        rows, formed = self.network.rows, dict(self._report.producible)
        zeros = (0.0,) * self.network.n_reactions
        cols = [formed[k].epsilon if k in formed else zeros for k in range(len(rows))]
        content = [[float(i == k) - sum(map(mul, rows[k], col)) for i, col in enumerate(cols)]
                   for k in self.elemental]
        return tuple(map(tuple, content)), tuple(zip(*cols))

    def gauge(self, comp: Composition) -> tuple[float, float]:
        """Additive constants (energy, entropy) relating the model scale to
        the reference scale for the given composition: the gauge gradient
        times its amounts, where ``decompose`` forms it."""
        self._content(comp)  # NotExpressible unless the environment forms it
        return tuple([sum(map(mul, g, comp.amounts)) for g in self.gauge_gradient])

    @cached_property
    def gauge_gradient(self) -> tuple[tuple, tuple]:
        """Constant gradients (dg_E/dn, dg_S/dn) of the gauge, which is linear
        in the amounts wherever the composition is expressible; tuples of
        floats, one entry per constituent."""
        content, refs = self.content_maps[0], self.physical_references
        return tuple(tuple(sum(row[k] * (a - ref[i]) for row, a, ref in zip(content, values, refs))
                           for k in range(self.network.n_constituents))
                     for i, values in enumerate((self.e0_assigned, self.s0_assigned)))

    @cached_property
    def _records(self) -> dict:
        return {}

    def _reference_record(self, model: MatterModel, comp: Composition,
                          keep: bool = True) -> tuple[float, SystemState, tuple, float]:
        """(g_E, reference proxy state, its (T, S) on the model's scale, its
        anchored entropy) of ``model`` at ``comp``, the state evaluated once.
        Kept per model object and amounts, the entry holding the model so
        that its id is not reused; refusals are not kept, and with
        ``keep=False`` (compositions that seldom recur) nothing is looked up
        or kept."""
        key, records = (id(model), comp.amounts), self._records
        record = records.pop(key, None) if keep else None
        if record is None:
            g_e, g_s = self.gauge(comp)
            ref_state = _state_at(model, self.t0, self.p0, comp)
            ts = model.evaluate(ref_state.energy, ref_state.params, comp)
            record = (model, g_e, ref_state, ts, g_s + ts[1])
            if not keep:
                return record[1:]
            if len(records) >= RECORDS:
                del records[next(iter(records))]
        records[key] = record
        return record[1:]

    @classmethod
    def chemical_convention(cls, constituents, elemental, network, species_models,
                            t0: float, p0: float) -> "ReferenceEnvironment":
        """Customary assignment E0 + p0 V0 = 0 and S0 = 0 for each species."""
        _check_conditions(t0, p0)
        boxes = _boxes(species_models, t0, p0)
        e0 = [-p0 * st.params.volume for st in boxes]
        env = cls(constituents, elemental, network, species_models, t0, p0, e0, [0.0] * len(e0))
        object.__setattr__(env, "_box_states", boxes)
        return env

    @classmethod
    def natural_convention(cls, constituents, elemental, network, species_models,
                           t0: float, p0: float) -> "ReferenceEnvironment":
        """Assign the model-scale physical values themselves (identity gauge)."""
        _check_conditions(t0, p0)
        refs = _physical_references(species_models, _boxes(species_models, t0, p0))
        e0, s0 = zip(*refs)
        env = cls(constituents, elemental, network, species_models, t0, p0, e0, s0)
        object.__setattr__(env, "physical_references", refs)  # the boxes are solved once
        return env


def _check_conditions(t0: float, p0: float) -> None:
    """ValueError unless t0 and p0 are positive and finite."""
    if not (0.0 < t0 < math.inf and 0.0 < p0 < math.inf):
        raise ValueError(f"t0 and p0 must be positive and finite, got {t0} and {p0}")


def _state_at(model: MatterModel, t0: float, p0: float, comp: Composition) -> SystemState:
    """The state of ``model`` holding ``comp`` at temperature t0 and pressure
    p0: a closed proxy's reference state, or, holding ``UNIT``, an elemental
    species' box."""
    params = Parameters([model.volume_at_pressure(t0, p0, comp)])
    return SystemState(solve_energy_at_temperature(model, t0, params, comp), params, comp)


def _boxes(species_models, t0: float, p0: float) -> list:
    """Each elemental species' box at (t0, p0): its state holding ``UNIT``."""
    return [_state_at(model, t0, p0, UNIT) for model in species_models]


def _physical_references(species_models, boxes) -> tuple:
    """(energy, entropy) of each species' box ``boxes``, model scale."""
    return tuple([(st.energy, entropy_of(model, st)) for model, st in zip(species_models, boxes)])


class OpenState(FrozenRecord):
    """State of an open system: composition not fixed to a compatibility class."""

    __slots__ = ("comp", "energy", "params")

    def __init__(self, comp: Composition, energy: float, params: Parameters):
        self._set_comp(self, comp)
        self._set_energy(self, float(energy))
        self._set_params(self, params)

    def closed_proxy(self) -> SystemState:
        return SystemState(self.energy, self.params, self.comp)


def open_energy_entropy(env: ReferenceEnvironment, model: MatterModel,
                        ost: OpenState) -> tuple[float, float]:
    """Energy and entropy of an open state on the common reference scale.

    The closed proxy at the state's composition is anchored by a reversible
    measurement against the environment reservoir; the anchor itself traces
    to the elemental reference states, so states of different compositions
    land on one comparable scale.
    """
    return _open_energy_entropy(env, model, ost.closed_proxy(),
                                env._reference_record(model, ost.comp))


def _open_energy_entropy(env: ReferenceEnvironment, model: MatterModel, proxy: SystemState,
                         record: tuple, s_proxy: float | None = None) -> tuple[float, float]:
    """``open_energy_entropy`` of a closed proxy from its composition's
    reference record, and the proxy's entropy on the model's scale when the
    caller has just evaluated it; the measurement then evaluates only the
    states it makes."""
    g_e, ref_state, ts_ref, s_anchor = record
    reservoir = env._reservoir
    res = _reversible_standard_process(model, ref_state, proxy, reservoir, ts_ref, s_proxy)[1]
    d_e_res = res.energy - reservoir.energy  # as its ledger would hold it
    return g_e + proxy.energy, s_anchor - d_e_res / reservoir.temperature


def open_entropy_direct(env: ReferenceEnvironment, model: MatterModel,
                        ost: OpenState) -> float:
    """Open-scale entropy straight from the fundamental relation (no process);
    the analytic counterpart of open_energy_entropy's measured value."""
    _, g_s = env.gauge(ost.comp)
    return g_s + entropy_of(model, ost.closed_proxy())


def _open_energy_function(env, model):
    """E_open(S_open, n, beta), the inverted open relation, for finite differencing."""

    def e_open(s_open: float, comp: Composition, params: Parameters) -> float:
        if env is None:
            return energy_of(model, s_open, params, comp)
        g_e, g_s = env.gauge(comp)
        return g_e + energy_of(model, s_open - g_s, params, comp)

    return e_open


def total_potentials(env: ReferenceEnvironment | None, model: MatterModel,
                     ost: OpenState) -> tuple:
    """Total potentials of all constituents: dE/dn_k at fixed entropy and parameters.

    Closed form on the open relation E_open = g_E(n) + E(S_open - g_S(n), n, beta):
    mu_k = dg_E/dn_k - T (dg_S/dn_k + dS/dn_k), with the environment's
    constant gauge gradient and dS/dn_k at fixed (E, beta) from the model's
    ``ds_dn``.
    ``env=None`` gives mu_k = -T dS/dn_k on the model's own scale.  Amounts at
    or below 1e-12 have no potential (NaN); compositions the environment
    cannot form raise NotExpressible.
    """
    if env is not None:
        env.decompose(ost.comp)  # NotExpressible unless the environment forms it
    st = ost.closed_proxy()
    t = temperature_of(model, st)
    return _potentials(env, st, t, model.ds_dn(st.energy, st.params, st.comp))


def _potentials(env: ReferenceEnvironment | None, st: SystemState, t: float,
                ds_dn: list) -> tuple:
    """``total_potentials`` at a checked state of temperature ``t`` and
    dS/dn ``ds_dn`` whose composition the environment forms."""
    if env is None:
        return tuple([-t * x if n > 1e-12 else math.nan for x, n in zip(ds_dn, st.comp.amounts)])
    g_e, g_s = env.gauge_gradient
    return tuple([a - t * (b + x) if n > 1e-12 else math.nan
                  for a, b, x, n in zip(g_e, g_s, ds_dn, st.comp.amounts)])


def gibbs_open_residual(env: ReferenceEnvironment | None, model: MatterModel,
                        ost: OpenState, d_s: float, d_n, d_beta) -> float:
    """Defect of dE = T dS + sum_i mu_i dn_i + sum_j F_j d beta_j on the open
    relation; shrinks quadratically with the perturbation.

    A test oracle: T, mu and F are finite differences of the inverted open
    relation itself, taken along the perturbed coordinates only.
    """
    d_n = _float_vector(d_n, "amount perturbation")
    d_beta = _float_vector(d_beta, "parameter perturbation")
    n0, beta0 = ost.comp.amounts, ost.params.beta
    if len(d_n) != len(n0) or len(d_beta) != len(beta0):
        raise ValueError("perturbation shapes do not match the state")

    e_open_fn = _open_energy_function(env, model)
    g_e, g_s = (0.0, 0.0) if env is None else env.gauge(ost.comp)
    r = len(n0)
    x0 = [g_s + entropy_of(model, ost.closed_proxy()), *n0, *beta0]
    dx = [float(d_s), *d_n, *d_beta]

    def e_at(x):  # x = (S_open, n, beta)
        return e_open_fn(x[0], Composition(x[1:1 + r]), Parameters(x[1 + r:]))

    along = [i for i, d in enumerate(dx) if d]

    def e_along(y):
        x = x0.copy()
        for i, y_i in zip(along, y):
            x[i] = y_i
        return e_at(x)

    amounts = [j for j, i in enumerate(along) if 1 <= i <= r]
    slopes = _fd_slopes(e_along, [x0[i] for i in along], amounts)
    moved = sum(s * dx[i] for s, i in zip(slopes, along))
    return abs(e_at([a + b for a, b in zip(x0, dx)]) - (g_e + ost.energy) - moved)


class OpenGrid(FrozenRecord):
    """Grid specification for tabulating an open fundamental relation."""

    __slots__ = ("energies", "volumes", "compositions", "reactive", "network")

    def __init__(self, energies, volumes, compositions, reactive: bool = False,
                 network: ReactionNetwork | None = None):
        self._set_energies(self, tuple(map(float, energies)))
        self._set_volumes(self, tuple(map(float, volumes)))
        self._set_compositions(self,  # n, or n0 when reactive
                               tuple([c if isinstance(c, Composition) else Composition(c)
                                      for c in compositions]))
        if reactive and network is None:
            raise ValueError("reactive tabulation needs a network")
        self._set_reactive(self, reactive)
        self._set_network(self, network)


class OpenTableRow(FrozenRecord):
    """One point of an open table; ``energy`` and ``entropy`` on the open
    (reference) scale."""

    __slots__ = ("energy", "volume", "n0", "entropy", "eps", "n_se", "temperature",
                 "pressure", "mu", "status")

    def __init__(self, energy: float, volume: float, n0: tuple, entropy: float, eps: tuple,
                 n_se: tuple, temperature: float, pressure: float, mu: tuple,
                 status: str = "ok"):
        self._set_energy(self, energy)
        self._set_volume(self, volume)
        self._set_n0(self, n0)
        self._set_entropy(self, entropy)
        self._set_eps(self, eps)
        self._set_n_se(self, n_se)
        self._set_temperature(self, temperature)
        self._set_pressure(self, pressure)
        self._set_mu(self, mu)
        self._set_status(self, status)


def _tabulate_point(env, model, grid, point) -> OpenTableRow:
    energy, volume, comp = point
    params = Parameters([volume])
    try:
        if grid.reactive:  # the solution keeps dS/dn at its state
            sol = stable_equilibrium(EquilibriumProblem((model,), (params,), (comp,), energy,
                                                        network=grid.network))
            st, temp, s, ds_dn = sol.states[0], sol.temperature, sol.entropy, sol._ds_dn
            eps = sol.eps_se.epsilon
        else:
            st = SystemState(energy, params, comp)
            temp, s = model.evaluate(energy, params, comp)
            eps, ds_dn = (), None
        # the reference record refuses what env cannot form, and keeps only what
        # it can; an equilibrium composition seldom recurs, so it is not kept
        record = env._reference_record(model, st.comp, keep=not grid.reactive)
        e_open, s_open = _open_energy_entropy(env, model, st, record, s)
        pres = _pressure(model, st, temp)
        if ds_dn is None:
            ds_dn = model.ds_dn(st.energy, st.params, st.comp)
        mu = _potentials(env, st, temp, ds_dn)
        return OpenTableRow(e_open, volume, comp.amounts, s_open, eps,
                            st.comp.amounts, temp, pres, mu)
    except (DomainError, RangeError, RangeExceeded, InadmissibleStep, Infeasible,
            NonConvergence, NotExpressible) as exc:
        nan = math.nan
        return OpenTableRow(nan, volume, comp.amounts, nan, (), (),
                            nan, nan, (), status=f"gap: {exc}")


def open_fundamental_relation(env: ReferenceEnvironment, model: MatterModel,
                              grid: OpenGrid) -> list[OpenTableRow]:
    """Tabulate the open fundamental relation over a grid, in grid order.

    Reactive grids solve a chemical equilibrium per point and record the
    equilibrium reaction coordinates.  Failed points become flagged gaps
    rather than aborting the table.
    """
    return [_tabulate_point(env, model, grid, point)
            for point in product(grid.energies, grid.volumes, grid.compositions)]
