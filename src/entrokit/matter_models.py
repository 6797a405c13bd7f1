"""Concrete model systems with analytic fundamental relations.

A model supplies a fundamental relation S(E, beta, n) over its stable
equilibrium states.  Built in: the classical ideal gas and ideal-gas mixture
in reduced units (k_B = 1; SI mode applies the single multiplicative constant
k_B), and the thermal reservoir.  Temperature, inverse relations and
derivatives are derived from the relation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import DomainError, NegativeAmount, NonConvergence, RangeError, RangeExceeded
from .roots import brentq, expand_bracket
from .stoichiometry import TOL_NEG, Composition, _float_vector

#: Boltzmann constant used in SI units mode (J/K); reduced mode uses 1.
KB_SI = 1.380649e-23

#: Smallest admissible thermal energy above the ground bound (log singularity).
GROUND_EPS = 1e-12

#: Contract tolerance for energy_of: |S(E*) - S| in entropy units.
TOL_INV = 1e-10

#: Relative finite-difference step: h_i = H_REL * max(1, |x_i|).
H_REL = 1e-6


@dataclass(frozen=True)
class Parameters:
    """Geometric parameters of a system, as a tuple of floats.  Built-in
    models use beta = (volume,)."""

    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", _float_vector(self.beta, "parameters"))

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


@dataclass(frozen=True)
class SystemState:
    """Energy, parameters and composition of a system at one instant.

    ``correlated`` marks states in which the system is correlated with its
    environment; entropy is undefined for such states, so every measurement
    in the process engine refuses them.
    """

    energy: float
    params: Parameters
    comp: Composition
    correlated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "energy", float(self.energy))


def state(energy: float, volume: float, amounts) -> SystemState:
    """Shorthand constructor for single-volume states."""
    return SystemState(energy, Parameters([volume]), Composition(amounts))


class MatterModel:
    """Fundamental relation S(E, beta, n) plus optional analytic shortcuts.

    Subclasses must implement ``entropy`` and ``energy_floor``.  The optional
    hooks return None when no closed form is available; callers then fall
    back to finite differences or bracketed root-finding.  ``log_amounts``
    has no such fallback and raises NotImplementedError.
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
        one validation; models may override it with a cheaper route."""
        self.validate(energy, params, comp)
        return _temperature(self, energy, params, comp), self.entropy(energy, params, comp)

    # analytic hooks, all optional

    def ds_de(self, energy, params, comp) -> float | None:
        """Analytic dS/dE at fixed (beta, n), or None."""
        return None

    def ds_dv(self, energy, params, comp) -> float | None:
        """Analytic dS/dV at fixed (E, n), V the first parameter, or None."""
        return None

    def ds_dn(self, energy, params, comp) -> list | None:
        """Analytic dS/dn_k at fixed (E, beta), one float per constituent, or None."""
        return None

    def ds_dn_along(self, energy, params, n0, direction, extent) -> float | None:
        """Analytic direction . dS/dn at fixed (E, beta) at the amounts
        n0 + extent * direction (sequences of floats), refusing them as
        Composition and ``evaluate`` would; or None."""
        return None

    def log_amounts(self, temperature, params, potentials) -> tuple:
        """The amounts at which dS/dn at fixed (E, beta) equals ``potentials``
        at the given temperature, in closed form: (ln n, dln n/dln T), one
        entry per constituent, with dln n_k/d potentials_k = -1/k_B (the
        model's attribute ``kb``).  Equilibrium over several independent
        reactions needs it."""
        raise NotImplementedError(
            f"{type(self).__name__} has no log_amounts hook, which equilibrium "
            f"over several independent reactions needs")

    def invert_entropy(self, entropy: float, params, comp) -> float | None:
        """Closed-form E with S(E, beta, n) = entropy, or None."""
        return None

    def energy_at_temperature(self, temperature: float, params, comp) -> float | None:
        """Closed-form E with T(E, beta, n) = temperature, or None."""
        return None

    def volume_on_isentrope(self, entropy: float, temperature: float, comp) -> float | None:
        """Closed-form volume where the isentrope at S meets temperature T, or None."""
        return None

    def volume_at_pressure(self, temperature: float, pressure: float, comp) -> float | None:
        """Closed-form volume of the state at temperature T and pressure p, or None."""
        return None


@dataclass(frozen=True)
class Species:
    """One ideal-gas constituent: translational/internal degrees of freedom,
    ground (formation) energy per particle, and entropy constant per particle."""

    name: str
    dof: float
    e0: float = 0.0
    s0: float = 0.0

    def __post_init__(self):
        for key in ("dof", "e0", "s0"):
            value = float(getattr(self, key))
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            object.__setattr__(self, key, value)
        if self.dof < 1:
            raise ValueError("dof must be at least 1")


class IdealGasMixture(MatterModel):
    """Ideal-gas mixture in a single region of volume V.

    S(E, V, n) = kB * sum_k n_k [ (dof_k/2) ln((dof_k/2) kB T / 1) + ln(V/n_k) + s0_k ]
    with T = 2 (E - sum_k n_k e0_k) / (kB sum_k dof_k n_k).  For one species
    with e0 = s0 = 0 and kB = 1 this reduces to
    S(E, V, n) = n [ (dof/2) ln(E/n) + ln(V/n) ].

    With c_k = (dof_k/2) ln((dof_k/2) kB) + s0_k the relation reads
    S = kB [ sum_{n_k > 0} n_k (c_k - ln n_k) + (dof . n / 2) ln T + n ln V ],
    so every method needs only three sums over the composition: e0 . n,
    dof . n and the sum over c_k.  ``_sums`` checks the composition and
    computes them, in plain floats, and keeps them for the last amounts it
    saw; a call with equal amounts reuses them.
    """

    def __init__(self, species, kb: float = 1.0):
        self.species = tuple(species)
        if not self.species:
            raise ValueError("mixture needs at least one species")
        self.kb = float(kb)
        self._dof = tuple(s.dof for s in self.species)
        self._e0 = tuple(s.e0 for s in self.species)
        self._c = tuple(0.5 * s.dof * math.log(0.5 * s.dof * self.kb) + s.s0
                        for s in self.species)
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
        if not self.kb * total > 0.0:  # k_B n may underflow in SI units
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
        return 2.0 * (energy - e0n) / (self.kb * dn)

    def _positive_temperature(self, energy: float, e0n: float, dn: float) -> float:
        e_th = energy - e0n
        if e_th <= 0.0:
            raise DomainError(
                f"thermal energy {e_th:.6g} at or below the ground bound"
            )
        t = 2.0 * e_th / (self.kb * dn)
        if t == 0.0:  # dof . n overflowed, or the quotient underflowed
            raise DomainError(f"no positive temperature at thermal energy {e_th:.6g}")
        return t

    def entropy(self, energy, params, comp) -> float:
        e0n, dn, cn = self._sums(comp)
        v = self._check_volume(params)
        t = self._positive_temperature(energy, e0n, dn)
        return self.kb * (cn + 0.5 * dn * math.log(t) + comp.total * math.log(v))

    def evaluate(self, energy, params, comp) -> tuple[float, float]:
        # the checks of validate, and T from the sums the relation reads
        e0n, dn, _ = self._sums(comp)
        _check_energy(energy, e0n + GROUND_EPS)
        entropy = self.entropy(energy, params, comp)
        return 2.0 * (energy - e0n) / (self.kb * dn), entropy

    def ds_de(self, energy, params, comp) -> float:
        self._check_volume(params)
        return 1.0 / self.temperature_closed_form(energy, comp)

    def ds_dv(self, energy, params, comp) -> float:
        self._sums(comp)
        return self.kb * comp.total / self._check_volume(params)

    #: stand-in slope for d(n ln n)/dn at n = 0, where the true slope diverges;
    #: large but finite so downstream linear algebra stays well defined
    LN_DIVERGENCE_CAP = 1e30

    def _slopes(self, n, t: float, log_v: float) -> list:
        """dS/dn_k at the amounts n, temperature t and ln V, in floats."""
        log_t, kb = math.log(t), self.kb
        return [
            kb * (c + 0.5 * dof * (log_t - 1.0) + log_v - math.log(nk) - 1.0) - e0 / t
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
        # dS/dn_k = k_B (c_k - 1 - ln n_k + (dof_k/2)(ln T - 1) + ln V) - e0_k/T,
        # solved for ln n_k
        if not temperature > 0.0:
            raise DomainError("temperature must be positive")
        log_t, log_v = math.log(temperature), math.log(self._check_volume(params))
        dof, e0 = np.array(self._dof), np.array(self._e0)
        log_n = (np.array(self._c) - 1.0 + 0.5 * dof * (log_t - 1.0) + log_v
                 - (e0 / temperature + np.asarray(potentials, dtype=float)) / self.kb)
        return log_n, 0.5 * dof + e0 / (self.kb * temperature)

    def invert_entropy(self, entropy, params, comp) -> float:
        e0n, dn, cn = self._sums(comp)
        v = self._check_volume(params)
        log_t = (entropy / self.kb - cn - comp.total * math.log(v)) / (0.5 * dn)
        try:
            t = math.exp(log_t)
        except OverflowError:
            raise RangeError(f"entropy {entropy:.6g} beyond any finite energy") from None
        return e0n + 0.5 * dn * self.kb * t

    def energy_at_temperature(self, temperature, params, comp) -> float:
        e0n, dn, _ = self._sums(comp)
        if temperature <= 0:
            raise DomainError("temperature must be positive")
        return e0n + 0.5 * dn * self.kb * temperature

    def volume_on_isentrope(self, entropy, temperature, comp) -> float:
        _, dn, cn = self._sums(comp)
        if not 0.5 * self.kb * temperature > 0.0:  # k_B T may underflow in SI units
            raise DomainError("temperature must be positive")
        const = cn + 0.5 * dn * math.log(temperature)
        try:
            v = math.exp((entropy / self.kb - const) / comp.total)
        except OverflowError:
            raise RangeError(f"entropy {entropy:.6g} at temperature {temperature:.6g} "
                             f"needs a volume beyond any finite one") from None
        if v == 0.0:
            raise RangeError(f"entropy {entropy:.6g} at temperature {temperature:.6g} "
                             f"needs a volume below any positive one")
        return v

    def volume_at_pressure(self, temperature, pressure, comp) -> float:
        self._sums(comp)
        return self.kb * temperature * comp.total / pressure


def ideal_gas_model(dof_per_particle: float, kb: float = 1.0) -> IdealGasMixture:
    """Single-species ideal gas with the given degrees of freedom."""
    if dof_per_particle < 1:
        raise ValueError("dof must be at least 1")
    return IdealGasMixture([Species("gas", dof_per_particle)], kb=kb)


@dataclass(frozen=True)
class ThermalReservoir:
    """Fixed-temperature energy sink with a finite admissible energy range.

    All its stable equilibrium states share the temperature, so its entropy
    change in any exchange is dE / temperature.
    """

    temperature: float
    energy: float = 0.0
    e_min: float = -1e9
    e_max: float = 1e9

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("reservoir temperature must be positive")
        if not self.e_min <= self.energy <= self.e_max:
            raise RangeExceeded(
                f"reservoir energy {self.energy:.6g} outside "
                f"[{self.e_min:.6g}, {self.e_max:.6g}]"
            )


def reservoir_exchange(reservoir: ThermalReservoir, d_energy: float) -> ThermalReservoir:
    """Move energy into (positive) or out of (negative) a reservoir.

    Returns the updated reservoir; raises RangeExceeded rather than leaving
    the finite admissible range.
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

    Takes the model's closed form when it gives a finite energy on the
    admissible interval, otherwise bracketed root-finding on the strictly
    increasing S(E); raises RangeError when the target entropy is not
    attained on the admissible energy interval.
    """
    floor = model.energy_floor(params, comp)
    ceiling = model.energy_ceiling(params, comp)
    closed = model.invert_entropy(entropy, params, comp)
    if closed is not None and math.isfinite(closed) and floor <= closed <= ceiling:
        return float(closed)

    def f(energy: float) -> float:
        return model.entropy(energy, params, comp) - entropy

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

    scale = max(1.0, abs(lo))
    hi, _ = expand_bracket(f, min(lo + scale, ceiling), f_lo, lo, limit=ceiling)

    # solve in log(E - lo): roots just above the ground bound need relative,
    # not absolute, precision
    span = hi - lo

    def g(x: float) -> float:
        return f(lo + math.exp(x))

    x_hi = math.log(span)
    x_lo = x_hi - 600.0  # E - lo down to span * e^-600
    g_lo = g(x_lo)
    if g_lo >= 0.0:
        root, f_root = lo + math.exp(x_lo), g_lo
    else:
        x_root, f_root = brentq(g, x_lo, x_hi, xtol=1e-14, rtol=1e-15, maxiter=300,
                                fa=g_lo)
        root = lo + math.exp(x_root)
    if abs(f_root) > tol:
        raise NonConvergence(
            f"energy_of missed the entropy target by {abs(f_root):.3g}", best=root
        )
    return float(root)


def solve_energy_at_temperature(model: MatterModel, temperature: float,
                                params: Parameters, comp: Composition) -> float:
    """Energy at which the state (E, params, comp) has the given temperature.

    Uses the model's closed form when available, otherwise bracketed
    root-finding on T(E), which is increasing for the built-in models.
    Raises RangeError when no such state exists.
    """
    closed = model.energy_at_temperature(temperature, params, comp)
    if closed is not None:
        return closed
    floor = model.energy_floor(params, comp)
    ceiling = model.energy_ceiling(params, comp)

    def f(energy: float) -> float:
        return temperature_of(model, SystemState(energy, params, comp)) - temperature

    # keep a margin for the central difference inside temperature_of
    margin = 4.0 * H_REL * max(1.0, abs(floor) + 1.0)
    lo = floor + margin
    f_lo = f(lo)
    if f_lo > 0.0:
        raise RangeError(
            f"temperature {temperature:.6g} unreachable above the ground bound"
        )
    if f_lo == 0.0:
        return lo
    hi, f_hi = expand_bracket(f, min(floor + max(1.0, abs(floor)), ceiling), f_lo, floor,
                              limit=ceiling)
    root, _ = brentq(f, lo, hi, xtol=1e-14 * max(1.0, abs(hi)), rtol=1e-15,
                     fa=f_lo, fb=f_hi)
    return float(root)


def temperature_of(model: MatterModel, st: SystemState) -> float:
    """Temperature (dE/dS at fixed parameters) of a stable equilibrium state.

    Analytic when the model supplies dS/dE, otherwise a central finite
    difference of the relation in E.
    """
    model.validate(st.energy, st.params, st.comp)
    return _temperature(model, st.energy, st.params, st.comp)


def _temperature(model: MatterModel, energy: float, params: Parameters,
                 comp: Composition) -> float:
    """1 / (dS/dE) at a validated state: the ``ds_de`` hook, else a central
    difference of the relation."""
    slope = model.ds_de(energy, params, comp)
    if slope is None:
        (slope,) = _fd_slopes(lambda e: entropy_of(model, SystemState(e[0], params, comp)),
                              [energy])
    if slope <= 0:
        raise DomainError(f"fundamental relation not increasing at E={energy:.6g}")
    return 1.0 / slope


def _fd_slopes(f, x, amounts=(), step=None) -> np.ndarray:
    """Finite-difference slopes of ``f`` at the point ``x``, one per coordinate:
    a vector for a scalar ``f``, the Jacobian (column i along x_i) for a vector
    ``f``.  Central, with step ``H_REL * max(1, |x_i|)`` unless ``step`` gives
    one; forward along an amount (the indices ``amounts``) within one step of 0.
    Raises DomainError when a step is lost to rounding."""
    x = np.array(x, dtype=float, ndmin=1)
    slopes, f_x = [], None
    for i, x_i in enumerate(x.tolist()):
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
    return np.array(slopes).T
