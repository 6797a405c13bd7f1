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
    _pinv,
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
    E0 + p0 V0 = 0 and S0 = 0.  Values that depend only on the environment
    are computed once, on first use, and kept with the (immutable) instance;
    so is the reference record of each of the last ``RECORDS`` (model,
    composition) pairs it anchored.
    """

    __slots__ = ("constituents", "elemental", "network", "species_models", "t0", "p0",
                 "e0_assigned", "s0_assigned", "__dict__")  # the dict holds the cached values

    def __init__(self, constituents, elemental, network: ReactionNetwork, species_models,
                 t0: float, p0: float, e0_assigned, s0_assigned):
        if t0 <= 0 or p0 <= 0:
            raise ValueError("reference temperature and pressure must be positive")
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
        object.__setattr__(self, "constituents", tuple(constituents))
        object.__setattr__(self, "elemental", tuple(int(i) for i in elemental))
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "species_models", tuple(species_models))
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "e0_assigned", e0)
        object.__setattr__(self, "s0_assigned", s0)

    # physical reference state of one unit of species i (box at T0, p0)

    def reference_volume(self, i: int) -> float:
        """Volume of one unit of species i at (T0, p0)."""
        return self.species_models[i].volume_at_pressure(self.t0, self.p0, UNIT)

    def reference_state(self, i: int) -> SystemState:
        model = self.species_models[i]
        params = Parameters([self.reference_volume(i)])
        energy = solve_energy_at_temperature(model, self.t0, params, UNIT)
        return SystemState(energy, params, UNIT)

    @cached_property
    def physical_references(self) -> tuple:
        """(energy, entropy) of one unit of each elemental species at (T0, p0),
        model scale, in declared elemental order."""
        refs = []
        for i, model in enumerate(self.species_models):
            st = self.reference_state(i)
            refs.append((st.energy, entropy_of(model, st)))
        return tuple(refs)

    def reservoir(self) -> ThermalReservoir:
        return self._reservoir

    @cached_property
    def _reservoir(self) -> ThermalReservoir:
        return ThermalReservoir(self.t0, 0.0, -math.inf, math.inf)

    def decompose(self, comp: Composition) -> tuple[tuple, tuple]:
        """Elemental content w and reaction coordinates eps forming ``comp``,
        each a tuple of floats.

        Solves the non-elemental rows of n = n_elem(w) + nu eps; raises
        NotExpressible when the composition cannot be reached from the set.
        """
        w, n = self._content(comp), comp.amounts
        return w, tuple(sum(map(mul, row, n)) for row in self.content_maps[1])

    def _content(self, comp: Composition) -> tuple:
        """The elemental content w of ``comp``.  Both refusals test against
        TOL_COMPAT times the total amount (at least 1), as the rounding of
        the maps grows with the amounts."""
        n = comp.amounts
        if len(n) != len(self.constituents):
            raise NotExpressible(
                f"composition has {len(n)} entries, environment declares "
                f"{len(self.constituents)}"
            )
        content, _, residual = self.content_maps
        tol = TOL_COMPAT * max(1.0, comp.total)
        if any(abs(sum(map(mul, row, n))) > tol for row in residual):
            raise NotExpressible("composition is not reachable from the elemental set")
        w = [sum(map(mul, row, n)) for row in content]
        if any(x < -tol for x in w):
            raise NotExpressible("composition would need negative elemental amounts")
        return tuple(0.0 if x < 0.0 else x for x in w)

    @cached_property
    def content_maps(self) -> tuple[tuple, tuple, tuple]:
        """Rows, as tuples of floats, of the maps, linear in the amounts n, to
        the signed elemental content w (declared elemental order), to the
        reaction coordinates eps, and to the residual of the non-elemental
        rows of n = n_elem(w) + nu eps.

        eps is the least-squares solution of the non-elemental rows, through
        their pseudo-inverse at the relative cutoff RCOND; the residual vanishes,
        up to rounding, exactly when those rows are solvable.
        """
        rows, r = self.network.rows, self.network.n_constituents
        outside = [k for k in range(r) if k not in self.elemental]
        # column k of the eps map: the pseudo-inverse's for an outside k, else zero
        pinv = dict(zip(outside, zip(*_pinv([rows[k] for k in outside]))))
        cols = [pinv.get(k, (0.0,) * self.network.n_reactions) for k in range(r)]

        def image(k: int) -> list:  # row k of nu times the eps map
            return [sum(map(mul, rows[k], col)) for col in cols]

        content = [[float(i == k) - x for i, x in enumerate(image(k))] for k in self.elemental]
        residual = [[x - float(i == k) for i, x in enumerate(image(k))] for k in outside]
        return tuple(tuple(map(tuple, m)) for m in (content, zip(*cols), residual))

    def physical_sums(self, w) -> tuple[float, float]:
        """Total (energy, entropy) of the elemental boxes holding amounts w."""
        e = s = 0.0
        for wi, (e_phys, s_phys) in zip(w, self.physical_references):
            if wi == 0.0:
                continue
            e += wi * e_phys
            s += wi * s_phys
        return e, s

    def gauge(self, comp: Composition) -> tuple[float, float]:
        """Additive constants (energy, entropy) relating the model scale to
        the reference scale for the given composition."""
        w = self._content(comp)
        e_phys, s_phys = self.physical_sums(w)
        return (sum(map(mul, w, self.e0_assigned)) - e_phys,
                sum(map(mul, w, self.s0_assigned)) - s_phys)

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
            ref_state = _reference_proxy_state(self, model, comp)
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
        zeros = (0.0,) * len(elemental)
        env = cls(constituents, elemental, network, species_models, t0, p0, zeros, zeros)
        e0 = [-p0 * env.reference_volume(i) for i in range(len(env.elemental))]
        return cls(constituents, elemental, network, species_models, t0, p0, e0, zeros)

    @classmethod
    def natural_convention(cls, constituents, elemental, network, species_models,
                           t0: float, p0: float) -> "ReferenceEnvironment":
        """Assign the model-scale physical values themselves (identity gauge)."""
        zeros = (0.0,) * len(elemental)
        env = cls(constituents, elemental, network, species_models, t0, p0, zeros, zeros)
        e0, s0 = zip(*env.physical_references)
        return cls(constituents, elemental, network, species_models, t0, p0, e0, s0)


class OpenState(FrozenRecord):
    """State of an open system: composition not fixed to a compatibility class."""

    __slots__ = ("comp", "energy", "params")

    def __init__(self, comp: Composition, energy: float, params: Parameters):
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "energy", float(energy))
        object.__setattr__(self, "params", params)

    def closed_proxy(self) -> SystemState:
        return SystemState(self.energy, self.params, self.comp)


def _reference_proxy_state(env: ReferenceEnvironment, model: MatterModel,
                           comp: Composition) -> SystemState:
    """Canonical state of the closed proxy: its state at the environment's (T0, p0)."""
    params = Parameters([model.volume_at_pressure(env.t0, env.p0, comp)])
    energy = solve_energy_at_temperature(model, env.t0, params, comp)
    return SystemState(energy, params, comp)


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
    reservoir = env.reservoir()
    process = _reversible_standard_process(model, ref_state, proxy, reservoir, ts_ref, s_proxy)
    return g_e + proxy.energy, s_anchor - process.d_e_res / reservoir.temperature


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
    return _potentials(env, model, st, temperature_of(model, st))


def _potentials(env: ReferenceEnvironment | None, model: MatterModel, st: SystemState,
                t: float) -> tuple:
    """``total_potentials`` at a checked state of temperature ``t`` whose
    composition the environment forms."""
    ds_dn = model.ds_dn(st.energy, st.params, st.comp)
    if env is None:
        mu = [-t * x for x in ds_dn]
    else:
        g_e, g_s = env.gauge_gradient
        mu = [a - t * (b + x) for a, b, x in zip(g_e, g_s, ds_dn)]
    return tuple(m if n > 1e-12 else math.nan for m, n in zip(mu, st.comp.amounts))


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
        object.__setattr__(self, "energies", tuple(float(e) for e in energies))
        object.__setattr__(self, "volumes", tuple(float(v) for v in volumes))
        object.__setattr__(self, "compositions",  # n, or n0 when reactive
                           tuple(Composition(c) if not isinstance(c, Composition) else c
                                 for c in compositions))
        if reactive and network is None:
            raise ValueError("reactive tabulation needs a network")
        object.__setattr__(self, "reactive", reactive)
        object.__setattr__(self, "network", network)


class OpenTableRow(FrozenRecord):
    """One point of an open table; ``energy`` and ``entropy`` on the open
    (reference) scale."""

    __slots__ = ("energy", "volume", "n0", "entropy", "eps", "n_se", "temperature",
                 "pressure", "mu", "status")

    def __init__(self, energy: float, volume: float, n0: tuple, entropy: float, eps: tuple,
                 n_se: tuple, temperature: float, pressure: float, mu: tuple,
                 status: str = "ok"):
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "entropy", entropy)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "n_se", n_se)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "pressure", pressure)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "status", status)


def _tabulate_point(env, model, grid, point) -> OpenTableRow:
    energy, volume, comp = point
    params = Parameters([volume])
    try:
        if grid.reactive:
            prob = EquilibriumProblem((model,), (params,), (comp,), energy,
                                      network=grid.network)
            sol = stable_equilibrium(prob)
            st, temp, s = sol.states[0], sol.temperature, sol.entropy
            eps = sol.eps_se.epsilon
        else:
            st = SystemState(energy, params, comp)
            temp, s = model.evaluate(energy, params, comp)
            eps = ()
        # the reference record refuses what env cannot form, and keeps only what
        # it can; an equilibrium composition seldom recurs, so it is not kept
        record = env._reference_record(model, st.comp, keep=not grid.reactive)
        e_open, s_open = _open_energy_entropy(env, model, st, record, s)
        pres = _pressure(model, st, temp)
        mu = _potentials(env, model, st, temp)
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
    return [
        _tabulate_point(env, model, grid, (e, v, c))
        for e in grid.energies
        for v in grid.volumes
        for c in grid.compositions
    ]
