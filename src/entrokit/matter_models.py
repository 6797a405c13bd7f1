"""Concrete model systems with analytic fundamental relations.

A model supplies a fundamental relation S(E, beta, n) over its stable
equilibrium states.  Built in: the classical ideal gas and ideal-gas mixture
in reduced units (k_B = 1: energies, pressures and potentials are their SI
values over k_B, and entropies pure numbers; ``scenario`` alone reads SI), and
the thermal reservoir.  Temperature, inverse relations and derivatives are
derived from the relation itself.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import (
    DomainError,
    FrozenRecord,
    NegativeAmount,
    NonConvergence,
    RangeError,
    RangeExceeded,
)
from .roots import increasing_root
from .stoichiometry import TOL_NEG, Composition, _float_vector

#: Smallest admissible thermal energy above the ground bound (log singularity).
GROUND_EPS = 1e-12

#: Contract tolerance for energy_of: |S(E*) - S| <= TOL_INV * max(1, |S|).
TOL_INV = 1e-10

#: Relative finite-difference step: h_i = H_REL * max(1, |x_i|).
H_REL = 1e-6


class Parameters(FrozenRecord):
    """Geometric parameters of a system, as a tuple of floats.  Built-in
    models use beta = (volume,)."""

    __slots__ = ("beta",)

    def __init__(self, beta):
        object.__setattr__(self, "beta", _float_vector(beta, "parameters"))

    @property
    def volume(self) -> float:
        """The first parameter; IndexError for an empty vector."""
        return self.beta[0]

    def __len__(self) -> int:
        return len(self.beta)

    def with_volume(self, volume: float) -> "Parameters":
        beta = list(self.beta)
        beta[0] = volume  # IndexError for an empty vector, as ``volume``
        return Parameters(beta)


class SystemState(FrozenRecord):
    """Energy, parameters and composition of a system at one instant.

    ``correlated`` marks states in which the system is correlated with its
    environment; entropy is undefined for such states, so every measurement
    in the process engine refuses them.
    """

    __slots__ = ("energy", "params", "comp", "correlated")

    def __init__(self, energy: float, params: Parameters, comp: Composition,
                 correlated: bool = False):
        object.__setattr__(self, "energy", float(energy))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "correlated", correlated)


def state(energy: float, volume: float, amounts) -> SystemState:
    """Shorthand constructor for single-volume states."""
    return SystemState(energy, Parameters([volume]), Composition(amounts))


class MatterModel:
    """Fundamental relation S(E, beta, n) and what derives from it.

    Subclasses must implement ``entropy`` and ``energy_floor``.  Every other
    method derives from them here, and a subclass overrides one only where it
    has a closed form.  Slopes are central differences; dS/dE differences the
    relation in ln(E - floor), so it stays above the ground bound.  Every
    inversion is one call of ``roots.increasing_root`` on a distance from an
    origin: E - floor for the energy at an entropy or a temperature, V for a
    volume.  ``log_amounts`` alone has no derivation and raises
    NotImplementedError.
    """

    def entropy(self, energy: float, params: Parameters, comp: Composition) -> float:
        raise NotImplementedError

    def energy_floor(self, params: Parameters, comp: Composition) -> float:
        """Lowest admissible energy for the given parameters and composition."""
        raise NotImplementedError

    def energy_ceiling(self, params: Parameters, comp: Composition) -> float:
        """Highest admissible energy; unbounded for normal systems."""
        return math.inf

    def validate(self, energy: float, params: Parameters, comp: Composition) -> None:
        _check_energy(energy, self.energy_floor(params, comp),
                      self.energy_ceiling(params, comp))

    def evaluate(self, energy: float, params: Parameters,
                 comp: Composition) -> tuple[float, float]:
        """Temperature 1 / (dS/dE) and entropy of the state (E, beta, n), from
        one validation."""
        self.validate(energy, params, comp)
        return _temperature(self, energy, params, comp), self.entropy(energy, params, comp)

    def ds_de(self, energy, params, comp) -> float:
        """dS/dE at fixed (beta, n): a central difference of the relation in
        ln(E - floor) with step H_REL, which stays above the floor at any
        scale of E - floor."""
        floor = self.energy_floor(params, comp)
        span = energy - floor
        if not span > 0.0:
            raise DomainError(f"energy {energy:.6g} at or below ground bound {floor:.6g}")
        (slope,) = _fd_slopes(
            lambda u: entropy_of(self, SystemState(floor + math.exp(u[0]), params, comp)),
            [math.log(span)], step=H_REL)
        return slope / span

    def ds_dv(self, energy, params, comp) -> float:
        """dS/dV at fixed (E, n), V the first parameter: a central difference
        with a step of H_REL * V, which also serves V << 1."""
        v = params.volume
        (slope,) = _fd_slopes(lambda x: self.entropy(energy, params.with_volume(x[0]), comp),
                              [v], step=H_REL * v)
        return slope

    def ds_dn(self, energy, params, comp) -> list:
        """dS/dn_k at fixed (E, beta), one float per constituent: finite
        differences, forward along an amount within one step of 0."""
        return _fd_slopes(lambda n: self.entropy(energy, params, Composition(n)),
                          comp.amounts, amounts=range(len(comp)))

    def ds_dn_along(self, energy, params, n0, direction, extent) -> float:
        """direction . dS/dn at fixed (E, beta) at the amounts
        n0 + extent * direction (sequences of floats), refusing them as
        Composition and ``evaluate`` would."""
        comp = Composition([a + d * extent for a, d in zip(n0, direction)])
        self.evaluate(energy, params, comp)
        return sum(map(mul, direction, self.ds_dn(energy, params, comp)))

    def log_amounts(self, temperature, params, potentials) -> tuple:
        """The amounts at which dS/dn at fixed (E, beta) equals ``potentials``
        at the given temperature, in closed form: (ln n, dln n/dln T), tuples
        of one float per constituent, with dln n_k/d potentials_k = -1.
        Equilibrium over several independent reactions needs it."""
        raise NotImplementedError(
            f"{type(self).__name__} has no log_amounts hook, which equilibrium "
            f"over several independent reactions needs")

    def invert_entropy(self, entropy: float, params, comp, tol: float = TOL_INV) -> float:
        """E with S(E, beta, n) = entropy, to within tol * max(1, |entropy|):
        the root of the strictly increasing S in the distance E - lo from the
        lowest evaluable energy lo.  Raises RangeError when the entropy is not
        attained on the admissible energy interval, NonConvergence when the
        root misses it."""
        floor = self.energy_floor(params, comp)
        ceiling = self.energy_ceiling(params, comp)
        tol = tol * max(1.0, abs(entropy))

        def f(energy: float) -> float:
            return self.entropy(energy, params, comp) - entropy

        # The floor itself may round onto the wrong side of the log singularity;
        # nudge upward until the relation is evaluable.
        lo = floor
        f_lo = None
        for _ in range(64):
            try:
                f_lo = f(lo)
                break
            except DomainError:
                lo = lo + max(GROUND_EPS, abs(lo) * 1e-15)
        if f_lo is None:
            raise RangeError("could not evaluate the relation near the ground bound")
        if f_lo > tol:
            raise RangeError(
                f"entropy {entropy:.6g} below the value {entropy + f_lo:.6g} at the ground bound"
            )
        if f_lo >= 0.0:
            return lo

        d, f_root = increasing_root(lambda d: f(min(lo + d, ceiling)), max(1.0, abs(lo)),
                                    limit=ceiling - lo)
        root = min(lo + d, ceiling)
        if abs(f_root) > tol:
            raise NonConvergence(
                f"entropy inversion missed its target by {abs(f_root):.3g}", best=root
            )
        return float(root)

    def energy_at_temperature(self, temperature: float, params, comp) -> float:
        """E with T(E, beta, n) = temperature: the root of T, increasing for
        normal systems, in the distance E - floor.  Raises RangeError when no
        such state exists, as when the search toward the floor loses the
        distance to the floor's float spacing or meets a refused state."""
        floor = self.energy_floor(params, comp)
        ceiling = self.energy_ceiling(params, comp)
        start = min(max(1.0, abs(floor)), ceiling - floor)

        def f(d: float) -> float:
            energy = min(floor + d, ceiling)
            try:
                if energy > floor:
                    return temperature_of(self, SystemState(energy, params, comp)) - temperature
            except DomainError:
                if d >= start:
                    raise
            raise RangeError(f"temperature {temperature:.6g} unreachable above the ground bound")

        d, _ = increasing_root(f, start, limit=ceiling - floor)
        return float(min(floor + d, ceiling))

    def volume_on_isentrope(self, entropy: float, temperature: float, params, comp) -> float:
        """Volume where the isentrope at S meets temperature T, the other
        parameters as in ``params``: searched from ``params``'s volume, as
        temperature falls while the volume grows."""
        def f(v: float) -> float:
            at = params.with_volume(v)
            energy = energy_of(self, entropy, at, comp, tol=1e-12)
            return temperature - temperature_of(self, SystemState(energy, at, comp))

        return increasing_root(f, params.volume)[0]

    def volume_at_pressure(self, temperature: float, pressure: float, comp) -> float:
        """Volume of the state at temperature T and pressure p = T dS/dV:
        searched, as the pressure falls while the volume grows, from the
        ideal gas's volume n T / p."""
        def pressure_at(v: float) -> float:
            params = Parameters([v])
            energy = self.energy_at_temperature(temperature, params, comp)
            return temperature * self.ds_dv(energy, params, comp)

        return increasing_root(lambda v: pressure - pressure_at(v),
                               comp.total * temperature / pressure)[0]


class Species(FrozenRecord):
    """One ideal-gas constituent: translational/internal degrees of freedom,
    ground (formation) energy per particle, and entropy constant per particle."""

    __slots__ = ("name", "dof", "e0", "s0")

    def __init__(self, name: str, dof: float, e0: float = 0.0, s0: float = 0.0):
        object.__setattr__(self, "name", name)
        for key, value in (("dof", dof), ("e0", e0), ("s0", s0)):
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            object.__setattr__(self, key, value)
        if self.dof < 1:
            raise ValueError("dof must be at least 1")


class IdealGasMixture(MatterModel):
    """Ideal-gas mixture in a single region of volume V.

    S(E, V, n) = sum_k n_k [ (dof_k/2) ln((dof_k/2) T) + ln(V/n_k) + s0_k ]
    with T = 2 (E - sum_k n_k e0_k) / (sum_k dof_k n_k).  For one species
    with e0 = s0 = 0 this reduces to S(E, V, n) = n [ (dof/2) ln(E/n) + ln(V/n) ].

    With c_k = (dof_k/2) ln(dof_k/2) + s0_k the relation reads
    S = sum_{n_k > 0} n_k (c_k - ln n_k) + (dof . n / 2) ln T + n ln V,
    so every method needs only three sums over the composition: e0 . n,
    dof . n and the sum over c_k.  ``_sums`` checks the composition and
    computes them, in plain floats, and keeps them for the last amounts it
    saw; a call with equal amounts reuses them.
    """

    def __init__(self, species):
        self.species = tuple(species)
        if not self.species:
            raise ValueError("mixture needs at least one species")
        self._dof = tuple(s.dof for s in self.species)
        self._e0 = tuple(s.e0 for s in self.species)
        self._c = tuple(0.5 * s.dof * math.log(0.5 * s.dof) + s.s0 for s in self.species)
        self._memo = (None, None)  # (amounts, their sums), swapped as one

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)

    def _linear_sums(self, n, total: float) -> tuple[float, float]:
        """(e0 . n, dof . n) of the amounts n, whose sum is ``total``, once checked."""
        if len(n) != len(self.species):
            raise DomainError(
                f"composition has {len(n)} entries, model has {len(self.species)} species"
            )
        if not total > 0.0:
            raise DomainError("composition is empty")
        return sum(map(mul, self._e0, n)), sum(map(mul, self._dof, n))

    def _sums(self, comp: Composition) -> tuple[float, float, float]:
        """(e0 . n, dof . n, sum_{n_k > 0} n_k (c_k - ln n_k)) of a checked
        composition; remembered for the last amounts."""
        memo, n = self._memo, comp.amounts
        if memo[0] == n:
            return memo[1]
        sums = (*self._linear_sums(n, comp.total),
                sum(nk * (c - math.log(nk)) for c, nk in zip(self._c, n) if nk > 0.0))
        self._memo = (n, sums)
        return sums

    def _check_volume(self, params: Parameters) -> float:
        v = params.volume
        if v <= 0:
            raise DomainError(f"volume must be positive, got {v:.6g}")
        if not v < math.inf:
            raise DomainError(f"volume {v:.6g} is not finite")
        return v

    def energy_floor(self, params, comp) -> float:
        return self._sums(comp)[0] + GROUND_EPS

    def temperature_closed_form(self, energy: float, comp: Composition) -> float:
        e0n, dn, _ = self._sums(comp)
        return 2.0 * (energy - e0n) / dn

    def _positive_temperature(self, energy: float, e0n: float, dn: float) -> float:
        e_th = energy - e0n
        if e_th <= 0.0:
            raise DomainError(
                f"thermal energy {e_th:.6g} at or below the ground bound"
            )
        t = 2.0 * e_th / dn
        if t == 0.0:  # dof . n overflowed, or the quotient underflowed
            raise DomainError(f"no positive temperature at thermal energy {e_th:.6g}")
        return t

    def entropy(self, energy, params, comp) -> float:
        e0n, dn, cn = self._sums(comp)
        v = self._check_volume(params)
        t = self._positive_temperature(energy, e0n, dn)
        return cn + 0.5 * dn * math.log(t) + comp.total * math.log(v)

    def evaluate(self, energy, params, comp) -> tuple[float, float]:
        # the checks of validate, and T from the sums the relation reads
        e0n, dn, _ = self._sums(comp)
        _check_energy(energy, e0n + GROUND_EPS)
        entropy = self.entropy(energy, params, comp)
        return 2.0 * (energy - e0n) / dn, entropy

    def ds_de(self, energy, params, comp) -> float:
        self._check_volume(params)
        return 1.0 / self.temperature_closed_form(energy, comp)

    def ds_dv(self, energy, params, comp) -> float:
        self._sums(comp)
        return comp.total / self._check_volume(params)

    #: stand-in slope for d(n ln n)/dn at n = 0, where the true slope diverges;
    #: large but finite so downstream linear algebra stays well defined
    LN_DIVERGENCE_CAP = 1e30

    def _slopes(self, n, t: float, log_v: float) -> list:
        """dS/dn_k at the amounts n, temperature t and ln V, in floats."""
        log_t = math.log(t)
        return [
            c + 0.5 * dof * (log_t - 1.0) + log_v - math.log(nk) - 1.0 - e0 / t
            if nk > 0.0 else self.LN_DIVERGENCE_CAP
            for nk, dof, c, e0 in zip(n, self._dof, self._c, self._e0)
        ]

    def ds_dn(self, energy, params, comp) -> list:
        t = self.temperature_closed_form(energy, comp)
        log_v = math.log(self._check_volume(params))
        return self._slopes(comp.amounts, t, log_v)

    def ds_dn_along(self, energy, params, n0, direction, extent) -> float:
        # Composition's clamp and the checks of evaluate, in their order, then
        # the slopes of ds_dn summed in sequence: the bits of direction @ ds_dn
        n = [a + d * extent for a, d in zip(n0, direction)]
        if not min(n, default=0.0) >= 0.0:  # a negative entry, or a leading NaN that hides one
            for k, nk in enumerate(n):
                if nk < -TOL_NEG:
                    raise NegativeAmount(k, nk)
            n = [0.0 if nk < 0.0 else nk for nk in n]
        e0n, dn = self._linear_sums(n, sum(n))
        _check_energy(energy, e0n + GROUND_EPS)
        log_v = math.log(self._check_volume(params))
        t = self._positive_temperature(energy, e0n, dn)
        return sum(map(mul, direction, self._slopes(n, t, log_v)))

    def log_amounts(self, temperature, params, potentials) -> tuple:
        # dS/dn_k = c_k - 1 - ln n_k + (dof_k/2)(ln T - 1) + ln V - e0_k/T,
        # solved for ln n_k
        if not temperature > 0.0:
            raise DomainError("temperature must be positive")
        log_t, log_v = math.log(temperature), math.log(self._check_volume(params))
        species = tuple(zip(self._c, self._dof, self._e0))
        log_n = tuple(c - 1.0 + 0.5 * dof * (log_t - 1.0) + log_v - (e0 / temperature + mu)
                      for (c, dof, e0), mu in zip(species, map(float, potentials), strict=True))
        return log_n, tuple(0.5 * dof + e0 / temperature for _, dof, e0 in species)

    def invert_entropy(self, entropy, params, comp, tol=TOL_INV) -> float:
        e0n, dn, cn = self._sums(comp)
        v = self._check_volume(params)
        log_t = (entropy - cn - comp.total * math.log(v)) / (0.5 * dn)
        try:
            t = math.exp(log_t)
        except OverflowError:
            raise RangeError(f"entropy {entropy:.6g} beyond any finite energy") from None
        return e0n + 0.5 * dn * t

    def energy_at_temperature(self, temperature, params, comp) -> float:
        e0n, dn, _ = self._sums(comp)
        if temperature <= 0:
            raise DomainError("temperature must be positive")
        return e0n + 0.5 * dn * temperature

    def volume_on_isentrope(self, entropy, temperature, params, comp) -> float:
        _, dn, cn = self._sums(comp)
        if not temperature > 0.0:
            raise DomainError("temperature must be positive")
        const = cn + 0.5 * dn * math.log(temperature)
        try:
            v = math.exp((entropy - const) / comp.total)
        except OverflowError:
            raise RangeError(f"entropy {entropy:.6g} at temperature {temperature:.6g} "
                             f"needs a volume beyond any finite one") from None
        if v == 0.0:
            raise RangeError(f"entropy {entropy:.6g} at temperature {temperature:.6g} "
                             f"needs a volume below any positive one")
        return v

    def volume_at_pressure(self, temperature, pressure, comp) -> float:
        self._sums(comp)
        return temperature * comp.total / pressure


def ideal_gas_model(dof_per_particle: float) -> IdealGasMixture:
    """Single-species ideal gas with the given degrees of freedom."""
    return IdealGasMixture([Species("gas", dof_per_particle)])


class ThermalReservoir(FrozenRecord):
    """Fixed-temperature energy sink with an admissible energy range.

    All its stable equilibrium states share the temperature, so its entropy
    change in any exchange is dE / temperature.
    """

    __slots__ = ("temperature", "energy", "e_min", "e_max")

    def __init__(self, temperature: float, energy: float = 0.0, e_min: float = -math.inf,
                 e_max: float = math.inf):
        if not 0.0 < temperature < math.inf:
            raise ValueError(f"reservoir temperature must be positive and finite, "
                             f"got {temperature}")
        if not e_min <= energy <= e_max:
            raise RangeExceeded(
                f"reservoir energy {energy:.6g} outside [{e_min:.6g}, {e_max:.6g}]"
            )
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "e_min", e_min)
        object.__setattr__(self, "e_max", e_max)


def reservoir_exchange(reservoir: ThermalReservoir, d_energy: float) -> ThermalReservoir:
    """Move energy into (positive) or out of (negative) a reservoir.

    Returns the updated reservoir; raises RangeExceeded rather than leaving
    the admissible range.
    """
    new_energy = reservoir.energy + d_energy
    if not reservoir.e_min <= new_energy <= reservoir.e_max:
        raise RangeExceeded(
            f"exchange of {d_energy:.6g} would move reservoir to {new_energy:.6g}, "
            f"outside [{reservoir.e_min:.6g}, {reservoir.e_max:.6g}]"
        )
    return ThermalReservoir(reservoir.temperature, new_energy, reservoir.e_min, reservoir.e_max)


def _check_energy(energy: float, floor: float, ceiling: float = math.inf) -> None:
    """Refuse an energy that is not finite or lies outside [floor, ceiling]."""
    if not math.isfinite(energy):
        raise DomainError(f"energy {energy:.6g} is not finite")
    if energy < floor:
        raise DomainError(f"energy {energy:.6g} below ground bound {floor:.6g}")
    if energy > ceiling:
        raise DomainError(f"energy {energy:.6g} above admissible range")


def entropy_of(model: MatterModel, st: SystemState) -> float:
    """Evaluate the fundamental relation at a state."""
    model.validate(st.energy, st.params, st.comp)
    return model.entropy(st.energy, st.params, st.comp)


def energy_of(model: MatterModel, entropy: float, params: Parameters,
              comp: Composition, tol: float = TOL_INV) -> float:
    """Invert the fundamental relation: the energy at which S(E) = entropy.

    A model's closed form that gives no finite energy on the admissible
    interval gives way to ``MatterModel.invert_entropy``'s bracket; raises
    RangeError when the target entropy is not attained on that interval.
    """
    closed = model.invert_entropy(entropy, params, comp, tol)
    if (math.isfinite(closed) and model.energy_floor(params, comp) <= closed
            <= model.energy_ceiling(params, comp)):
        return float(closed)
    return MatterModel.invert_entropy(model, entropy, params, comp, tol)


def solve_energy_at_temperature(model: MatterModel, temperature: float,
                                params: Parameters, comp: Composition) -> float:
    """Energy at which the state (E, params, comp) has the given temperature;
    raises RangeError when no such state exists."""
    return model.energy_at_temperature(temperature, params, comp)


def temperature_of(model: MatterModel, st: SystemState) -> float:
    """Temperature (dE/dS at fixed parameters) of a stable equilibrium state."""
    model.validate(st.energy, st.params, st.comp)
    return _temperature(model, st.energy, st.params, st.comp)


def _temperature(model: MatterModel, energy: float, params: Parameters,
                 comp: Composition) -> float:
    """1 / (dS/dE) at a validated state."""
    slope = model.ds_de(energy, params, comp)
    if slope <= 0:
        raise DomainError(f"fundamental relation not increasing at E={energy:.6g}")
    return 1.0 / slope


def _fd_slopes(f, x, amounts=(), step=None) -> list:
    """Finite-difference slopes of the scalar ``f`` at the point ``x``, a
    sequence of floats, one float per coordinate; ``f`` takes a list.
    Central, with step ``H_REL * max(1, |x_i|)`` unless ``step`` gives one;
    forward along an amount (the indices ``amounts``) within one step of 0.
    Raises DomainError when a step is lost to rounding."""
    x = list(map(float, x))
    slopes, f_x = [], None
    for i, x_i in enumerate(x):
        h = H_REL * max(1.0, abs(x_i)) if step is None else step
        if x_i + h == x_i:
            raise DomainError(f"finite-difference step vanishes at {x_i:.6g}")
        hi, lo = x.copy(), x.copy()
        hi[i] = x_i + h
        if i in amounts and x_i <= h:
            f_x = f(x) if f_x is None else f_x
            slopes.append((f(hi) - f_x) / h)
        else:
            lo[i] = x_i - h
            slopes.append((f(hi) - f(lo)) / (2.0 * h))
    return slopes
