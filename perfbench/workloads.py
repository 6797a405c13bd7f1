"""Seeded inputs, operations and correctness oracles of the library workloads.

Every workload draws plain numbers from its seed, in fixed-size chunks, so
operation ``i`` always sees the same inputs whatever the run length.  An
operation builds its input objects with entrokit's public constructors, as a
caller would, and makes one library call; both count in its latency.  The
oracle of an operation rebuilds the same inputs outside the timed phase and
checks the returned values against an independent route through the library.

All quantities are in reduced units (k_B = 1).
"""

from __future__ import annotations

import hashlib

import numpy as np

# Library calls go through module attributes so that the tracer, which
# rebinds those attributes, sees them.
import entrokit as ek
from entrokit import open_systems

#: Operations drawn per chunk of the input stream.
CHUNK = 1024

#: Criterion-1 tolerance of the operational entropy difference, and the
#: tolerance of the measured open-scale entropy against the direct one.
TOL_ENTROPY = 1e-9
#: Relative tolerance of a measured temperature ratio against T1 / T2.
TOL_RATIO = 1e-9
#: Largest accepted KKT and finite-difference stationarity residuals.
TOL_RESIDUAL = 1e-8
#: Relative tolerance of the summed subsystem energies against the budget.
TOL_ENERGY_SUM = 1e-9

WATER = ek.ReactionNetwork([[-2.0], [-1.0], [2.0]])
WATER_WITH_INERT = ek.ReactionNetwork([[-2.0], [-1.0], [2.0], [0.0]])
CHAIN = ek.ReactionNetwork([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])


class Workload:
    """Seeded operation stream; subclasses define ``_draw``, ``op`` and ``check``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._chunk = (-1, None)
        self.raw(0)

    def raw(self, i: int) -> np.ndarray:
        """The drawn numbers of operation ``i``, one row.  Only the latest
        chunk is kept, so memory does not grow with the run length."""
        c, k = divmod(i, CHUNK)
        if self._chunk[0] != c:
            tag = int.from_bytes(self.name.encode(), "little")
            rng = np.random.default_rng([self.seed, tag, c])
            self._chunk = (c, self._draw(rng, CHUNK))
        return self._chunk[1][k]

    def digest(self, n: int) -> str:
        """Hash of the numbers drawn for the first ``n`` operations."""
        h = hashlib.sha256()
        for i in range(n):
            h.update(self.raw(i).tobytes())
        return h.hexdigest()

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def kind(self, i: int) -> str:
        """Label of the operation's kind, for per-kind latency reports."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError


class Measure(Workload):
    """Entropy differences of random state pairs of three ideal gases against
    three reservoirs, with one temperature-ratio measurement in ten."""

    name = "measure"
    GAS_DOF = (3.0, 5.0, 7.0)
    RESERVOIR_T = (0.5, 1.0, 2.0)
    RATIO_SHARE = 0.1

    def __init__(self, seed: int):
        self.gases = [ek.ideal_gas_model(dof) for dof in self.GAS_DOF]
        self.reservoirs = [ek.ThermalReservoir(t, 0.0, -1e9, 1e9) for t in self.RESERVOIR_T]
        super().__init__(seed)

    def _draw(self, rng, n):
        # columns: gas, reservoir, second reservoir, ratio op, amount, E1, V1, E2, V2
        out = np.empty((n, 9))
        out[:, 0] = rng.integers(0, 3, n)
        out[:, 1] = rng.integers(0, 3, n)
        out[:, 2] = (out[:, 1] + rng.integers(1, 3, n)) % 3
        out[:, 3] = rng.random(n) < self.RATIO_SHARE
        out[:, 4] = rng.uniform(0.5, 2.0, n)
        out[:, 5:9] = rng.uniform(0.3, 6.0, (n, 4))
        # a ratio op keeps the energy and grows the volume, so the pair
        # carries an entropy change of at least ln 1.5
        ratio = out[:, 3] == 1.0
        out[ratio, 7] = out[ratio, 5]
        out[ratio, 8] = out[ratio, 6] * rng.uniform(1.5, 4.0, int(ratio.sum()))
        return out

    def _inputs(self, i):
        g, r1, r2, is_ratio, amount, e1, v1, e2, v2 = self.raw(i)
        model = self.gases[int(g)]
        st1 = ek.state(e1 * amount, v1, [amount])
        st2 = ek.state(e2 * amount, v2, [amount])
        return model, self.reservoirs[int(r1)], self.reservoirs[int(r2)], bool(is_ratio), st1, st2

    def kind(self, i):
        return "temperature_ratio" if self.raw(i)[3] else "entropy_difference"

    def op(self, i):
        model, res1, res2, is_ratio, st1, st2 = self._inputs(i)
        if is_ratio:
            return ek.measure_temperature_ratio(res1, res2, model, st1, st2)
        return ek.measure_entropy_difference(model, st1, st2, res1)

    def check(self, i, result):
        model, res1, res2, is_ratio, st1, st2 = self._inputs(i)
        if is_ratio:
            expected = res1.temperature / res2.temperature
            return abs(result - expected) <= TOL_RATIO * expected
        expected = ek.entropy_of(model, st2) - ek.entropy_of(model, st1)
        return abs(result - expected) <= TOL_ENTROPY


class Equilibrate(Workload):
    """Entropy-maximization problems with freshly drawn species parameters:
    one-reaction water oxidation, the two-reaction chain A -> B -> C, and
    water oxidation beside an inert gas, whose energy split root-finds."""

    name = "equilibrate"
    KINDS = ("water", "chain", "water_inert")
    #: Water solves cost about a third of the others.  With a fifth of them
    #: the median latency falls inside the dense cluster of the two costlier
    #: kinds instead of on its sparse lower edge, where it would jump with
    #: the machine's speed.
    SHARES = (0.2, 0.4, 0.4)

    def _draw(self, rng, n):
        # columns: kind, then 16 parameters interpreted per kind.  Amounts stay
        # near one particle: the finite-difference residual of the oracle has a
        # rounding floor near 5e-10 |S|, so larger systems would reach its
        # absolute 1e-8 tolerance with a correct solution.
        out = np.empty((n, 17))
        out[:, 0] = rng.choice(3, n, p=self.SHARES)
        out[:, 1:5] = rng.uniform(3.0, 5.0, (n, 4))      # dof of the species
        out[:, 5] = rng.uniform(-2.0, -1.0, n)           # product formation energy
        out[:, 6] = rng.uniform(-0.5, 0.0, n)            # chain: e0 of B
        out[:, 7:10] = rng.uniform(-0.5, 0.5, (n, 3))    # entropy constants
        out[:, 10] = rng.uniform(0.4, 0.8, n)            # reactant scale
        out[:, 11] = rng.uniform(0.0, 0.2, n)            # initial product
        out[:, 12] = rng.uniform(0.5, 1.5, n)            # volume
        out[:, 13] = rng.uniform(5.0, 9.0, n)            # energy per reactant scale
        out[:, 14] = rng.uniform(3.0, 7.0, n)            # inert gas dof
        out[:, 15] = rng.uniform(0.3, 0.6, n)            # inert amount
        out[:, 16] = rng.uniform(0.5, 1.5, n)            # inert volume
        return out

    def problem(self, i) -> ek.EquilibriumProblem:
        (kind, d1, d2, d3, dp, e0p, e0b, s1, s2, s3, a, b, vol, energy,
         d_inert, n_inert, v_inert) = self.raw(i)
        if kind == 1:
            mix = ek.IdealGasMixture([
                ek.Species("A", d1, 0.0, s1),
                ek.Species("B", d2, e0b, s2),
                ek.Species("C", d3, e0b + 0.5 * e0p, s3),
            ])
            return ek.EquilibriumProblem((mix,), (ek.Parameters([vol]),),
                                         (ek.Composition([a, 0.5 * a, b]),), a * energy,
                                         network=CHAIN)
        mix = ek.IdealGasMixture([
            ek.Species("H2", d1, 0.0, s1),
            ek.Species("O2", d2, 0.0, s2),
            ek.Species("H2O", dp, e0p, s3),
        ])
        comp = ek.Composition([2.0 * a, a, b])
        if kind == 0:
            return ek.EquilibriumProblem((mix,), (ek.Parameters([vol]),), (comp,),
                                         a * energy, network=WATER)
        inert = ek.ideal_gas_model(d_inert)
        return ek.EquilibriumProblem(
            (mix, inert), (ek.Parameters([vol]), ek.Parameters([v_inert])),
            (comp, ek.Composition([n_inert])), a * energy + 2.0 * n_inert,
            network=WATER_WITH_INERT,
        )


    def kind(self, i):
        return self.KINDS[int(self.raw(i)[0])]

    def op(self, i):
        return ek.stable_equilibrium(self.problem(i))

    def check(self, i, sol):
        prob = self.problem(i)
        if sol.kkt_residual > TOL_RESIDUAL:
            return False
        if ek.equilibrium_residual(sol, prob) > TOL_RESIDUAL:
            return False
        gap = abs(sum(sol.energies) - prob.total_energy)
        return gap <= TOL_ENERGY_SUM * max(1.0, abs(prob.total_energy))


class Tabulate(Workload):
    """Two-point tabulations of the open fundamental relation of the H2/O2/H2O
    mixture over one shared reference environment and a handful of
    compositions reused across freshly drawn (E, V) points.

    One tabulation in three is reactive.  A reactive point costs about three
    non-reactive ones, and with an even split the median latency would fall
    in the gap between the two kinds and jump with the drawn share.
    """

    name = "tabulate"
    N_COMPOSITIONS = 5
    REACTIVE_SHARE = 1.0 / 3.0

    def __init__(self, seed: int):
        self.model = ek.IdealGasMixture([
            ek.Species("H2", 5.0), ek.Species("O2", 5.0), ek.Species("H2O", 6.0, e0=-2.0),
        ])
        self.env = ek.ReferenceEnvironment.chemical_convention(
            ("H2", "O2", "H2O"), (0, 1), WATER,
            (ek.IdealGasMixture([ek.Species("H2", 5.0)]),
             ek.IdealGasMixture([ek.Species("O2", 5.0)])),
            1.0, 1.0,
        )
        # every seed spans the same range of compositions, jittered by a few
        # percent, so that the pool does not make one seed costlier than another
        rng = np.random.default_rng([int(seed), 0])
        jitter = rng.uniform(0.97, 1.03, (2, self.N_COMPOSITIONS))
        scale = np.linspace(0.6, 1.4, self.N_COMPOSITIONS) * jitter[0]
        product = rng.permutation(np.linspace(0.1, 0.5, self.N_COMPOSITIONS)) * jitter[1]
        self.compositions = [ek.Composition([2.0 * a, a, b]) for a, b in zip(scale, product)]
        super().__init__(seed)

    def _draw(self, rng, n):
        # columns: composition, reactive, E1, E2, V
        out = np.empty((n, 5))
        out[:, 0] = rng.integers(0, self.N_COMPOSITIONS, n)
        out[:, 1] = rng.random(n) < self.REACTIVE_SHARE
        out[:, 2:4] = rng.uniform(5.0, 10.0, (n, 2))
        out[:, 4] = rng.uniform(0.5, 3.0, n)
        return out

    def grid(self, i) -> ek.OpenGrid:
        c, reactive, e1, e2, vol = self.raw(i)
        return ek.OpenGrid((e1, e2), (vol,), (self.compositions[int(c)],),
                        reactive=bool(reactive), network=WATER)

    def kind(self, i):
        return "reactive" if self.raw(i)[1] else "nonreactive"

    def op(self, i):
        return ek.open_fundamental_relation(self.env, self.model, self.grid(i))

    def check(self, i, rows):
        grid = self.grid(i)
        if len(rows) != len(grid.energies):
            return False
        for energy, row in zip(grid.energies, rows):
            if row.status != "ok":
                return False
            ost = ek.OpenState(ek.Composition(row.n_se), energy, ek.Parameters([row.volume]))
            direct = open_systems.open_entropy_direct(self.env, self.model, ost)
            if abs(row.entropy - direct) > TOL_ENTROPY * max(1.0, abs(direct)):
                return False
        return True


LIBRARY_WORKLOADS = {w.name: w for w in (Measure, Equilibrate, Tabulate)}
