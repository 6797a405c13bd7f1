"""Stable and chemical equilibrium by constrained entropy maximization.

A problem fixes the total energy, the per-subsystem parameters, and an
initial composition; the free variables are the energy split across
subsystems and the amounts the reactions can reach.  The inner split is
solved by temperature equalization (stationarity across subsystems).  Along
one independent reaction the maximization brackets the zero of the
reaction's affinity in plain floats: in a one-region problem a probe is the
model's closed form ``ds_dn_along`` where it has one, else an evaluated
point, and only the answer becomes a state.  Over
several it minimizes the convex dual in the element potentials and 1/T
(W. C. Reynolds, STANJAN, 1986; Gordon & McBride, NASA RP-1311, 1994): each
model gives its amounts at given potentials and temperature in closed form
(the ``log_amounts`` hook), and the answer is packaged and certified at those
amounts.  Certificates take nonnegative least-squares multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import mul

import numpy as np

from .errors import (
    DomainError,
    Infeasible,
    NegativeAmount,
    NonConvergence,
    RangeError,
)
from .matter_models import (
    H_REL,
    MatterModel,
    Parameters,
    SystemState,
    _fd_slopes,
    energy_of,
    entropy_of,
    solve_energy_at_temperature,
    temperature_of,
)
from .roots import brentq, expand_bracket
from .stoichiometry import Composition, ReactionCoordinates, ReactionNetwork

MAX_ITER = 200
TOL_KKT = 1e-10

_FLOAT_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EquilibriumProblem:
    """Entropy maximization over an energy split and reaction coordinates.

    Subsystems share the total energy budget; the network acts on the
    concatenation of their compositions (``n0`` entries in declaration
    order).  ``network=None`` means non-reactive.
    """

    models: tuple
    params: tuple
    n0: tuple
    total_energy: float
    network: ReactionNetwork | None = None

    def __post_init__(self):
        models = tuple(self.models)
        params = tuple(self.params)
        n0 = tuple(self.n0)
        if not (len(models) == len(params) == len(n0)) or not models:
            raise ValueError("models, params and n0 must align and be non-empty")
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "total_energy", float(self.total_energy))
        if self.network is not None:
            r = sum(len(c) for c in n0)
            if self.network.n_constituents != r:
                raise ValueError(
                    f"network has {self.network.n_constituents} constituents, "
                    f"problem concatenates {r}"
                )

    @property
    def n_reactions(self) -> int:
        return 0 if self.network is None else self.network.n_reactions

    def slices(self) -> list[slice]:
        out, start = [], 0
        for comp in self.n0:
            out.append(slice(start, start + len(comp)))
            start += len(comp)
        return out

    def n0_concat(self) -> np.ndarray:
        return np.concatenate([c.amounts for c in self.n0])


@dataclass(frozen=True)
class EquilibriumSolution:
    """A stationary point of the constrained entropy maximization."""

    eps_se: ReactionCoordinates
    energies: tuple
    states: tuple
    entropy: float
    temperature: float
    chemical_potentials: np.ndarray
    affinities: np.ndarray
    kkt_residual: float
    boundary: bool
    active: tuple
    degenerate: bool
    iterations: int


@dataclass
class _Point:
    """Reaction coordinates and what the solvers need there, each evaluated
    once: the amounts (floats), the subsystem compositions, the
    equal-temperature split and the total entropy.  dS/dn is filled in on
    first use."""

    eps: list | np.ndarray
    n: list
    comps: list
    energies: list
    temperature: float
    entropy: float
    ds_dn: list | None = None


def _point(prob: EquilibriumProblem, eps, n: list) -> _Point:
    """The problem evaluated at the amounts ``n`` (floats), which the
    coordinates ``eps`` reach; raises DomainError, RangeError or
    NegativeAmount where it has no admissible state."""
    comps = [Composition(n[sl]) for sl in prob.slices()]
    return _Point(eps, n, comps, *_split(prob, comps))


def _point_at(prob: EquilibriumProblem, n: np.ndarray) -> _Point:
    """The problem evaluated at the amounts ``n``, with the minimum-norm
    coordinates that reach them."""
    eps, *_ = np.linalg.lstsq(prob.network.stoich, n - prob.n0_concat(), rcond=1e-10)
    return _point(prob, eps, n.tolist())


def _split(prob: EquilibriumProblem, comps) -> tuple[list[float], float, float]:
    """Energy split equalizing subsystem temperatures; returns (energies,
    T, total entropy)."""
    if len(prob.models) == 1:
        e = prob.total_energy
        t_eq, entropy = prob.models[0].evaluate(e, prob.params[0], comps[0])
        return [e], t_eq, entropy

    floors = [m.energy_floor(p, c) for m, p, c in zip(prob.models, prob.params, comps)]
    if prob.total_energy <= sum(floors):
        raise DomainError("total energy does not exceed the summed ground bounds")

    def excess(t: float) -> float:
        return sum(
            solve_energy_at_temperature(m, t, p, c)
            for m, p, c in zip(prob.models, prob.params, comps)
        ) - prob.total_energy

    # the excess grows with T; bracket at powers of 8 on the far side of T = 1
    t_eq, e1 = 1.0, excess(1.0)
    if e1 != 0.0:
        factor = 8.0 if e1 < 0.0 else 0.125
        t, e = expand_bracket(excess, factor, e1, 0.0, factor=factor)
        (t_lo, e_lo), (t_hi, e_hi) = sorted([(1.0, e1), (t, e)])
        t_eq, _ = brentq(excess, t_lo, t_hi, xtol=1e-15 * max(1.0, t_hi), rtol=1e-15,
                         fa=e_lo, fb=e_hi)
    energies = [
        solve_energy_at_temperature(m, t_eq, p, c)
        for m, p, c in zip(prob.models, prob.params, comps)
    ]
    entropy = sum(
        entropy_of(m, SystemState(e, p, c))
        for m, e, p, c in zip(prob.models, energies, prob.params, comps)
    )
    return energies, float(t_eq), entropy


def _ds_dn(prob: EquilibriumProblem, pt: _Point) -> list:
    """dS/dn for each constituent at the point's split, in floats, computed once."""
    if pt.ds_dn is None:
        ds_dn = []
        for model, e, p, c in zip(prob.models, pt.energies, prob.params, pt.comps):
            d = model.ds_dn(e, p, c)
            ds_dn += _fd_ds_dn(model, e, p, c) if d is None else d
        pt.ds_dn = ds_dn
    return pt.ds_dn


def _wall(n0: list) -> float:
    """Amounts at most this count as exhausted: 1e-9 of the largest initial
    one, at least 1e-9."""
    return 1e-9 * max(1.0, max(map(abs, n0), default=0.0))


def _fd_ds_dn(model: MatterModel, energy: float, params: Parameters,
              comp: Composition) -> list:
    """The fallback of the ``ds_dn`` hook: a finite difference, in floats."""
    return _fd_slopes(lambda n: model.entropy(energy, params, Composition(n)),
                      comp.amounts, amounts=range(len(comp))).tolist()


def _feasible_interval_1d(n0: list, col: list) -> tuple[float, float]:
    lo, hi = -math.inf, math.inf
    for nk, c in zip(n0, col):
        if c > 0:
            lo = max(lo, -nk / c)
        elif c < 0:
            hi = min(hi, nk / (-c))
    return lo, hi


def solution_at(prob: EquilibriumProblem, eps, iterations: int = 0) -> EquilibriumSolution:
    """Package the split, potentials and residuals at given reaction coordinates."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float)) if prob.n_reactions else np.zeros(0)
    n = prob.n0_concat()
    if prob.network is not None:
        n = n + prob.network.stoich @ eps
    return _package(prob, _point(prob, eps, n.tolist()), iterations)


def _package(prob: EquilibriumProblem, pt: _Point, iterations: int,
             certificate: tuple | None = None) -> EquilibriumSolution:
    """The solution at a point; ``certificate`` is its ``_kkt`` pair when
    already known."""
    states = tuple(
        SystemState(e, p, c) for e, p, c in zip(pt.energies, prob.params, pt.comps)
    )
    if prob.n_reactions:
        nu = prob.network.stoich
        dsdn = np.array(_ds_dn(prob, pt))
        mu = -pt.temperature * dsdn
        affinities = nu.T @ mu
        if certificate is None:
            wall = _wall([x for c in prob.n0 for x in c.amounts])
            certificate = _kkt(nu, pt.n, nu.T @ dsdn, wall)
        kkt, active = certificate
        degenerate = prob.network.rank < prob.n_reactions
        if degenerate:
            eps_report, *_ = np.linalg.lstsq(nu, np.array(pt.n) - prob.n0_concat(),
                                             rcond=1e-10)
        else:
            eps_report = pt.eps
    else:
        mu = np.zeros(0)
        affinities = np.zeros(0)
        kkt = 0.0
        active = ()
        degenerate = False
        eps_report = np.zeros(0)

    return EquilibriumSolution(
        eps_se=ReactionCoordinates(eps_report),
        energies=tuple(pt.energies),
        states=states,
        entropy=float(pt.entropy),
        temperature=pt.temperature,
        chemical_potentials=mu,
        affinities=affinities,
        kkt_residual=kkt,
        boundary=bool(active),
        active=active,
        degenerate=degenerate,
        iterations=iterations,
    )


def _kkt(nu, n: list, grad: list, wall: float) -> tuple[float, tuple]:
    """KKT residual at the amounts ``n``, where the entropy gradient nu^T dS/dn
    is ``grad`` (floats; ``nu`` has one row per constituent), and its active
    constituents: those with amounts at most ``wall``.  Without one the
    residual is max |grad|: along one reaction, the |g| of the probe."""
    active = tuple(k for k, x in enumerate(n) if x <= wall)
    if not active:
        return float(abs(grad[0]) if len(grad) == 1 else np.max(np.abs(grad))), active
    # residual of the KKT system grad = -sum(lambda_k nu_k), lambda >= 0
    g = np.array(grad)
    a = np.array([nu[k] for k in active]).T
    return float(np.max(np.abs(g + a @ _nnls(a, -g)))), active


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x >= 0 minimizing |a x - b|, by the active-set method of Lawson and
    Hanson (Solving Least Squares Problems, 1974, ch. 23)."""
    x, free = np.zeros(a.shape[1]), np.zeros(a.shape[1], dtype=bool)
    tol = 10.0 * _FLOAT_EPS * max(a.shape) * max(1.0, float(np.max(np.abs(a).sum(axis=0))))
    for _ in range(3 * a.shape[1]):
        w = a.T @ (b - a @ x)
        if free.all() or np.max(w[~free]) <= tol:
            break
        free[np.argmax(np.where(free, -np.inf, w))] = True
        while True:  # solve on the free set, stepping back while an entry is not positive
            z = np.zeros_like(x)
            z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            out = free & (z <= 0.0)
            if not out.any():
                break
            x += np.min(x[out] / np.maximum(x[out] - z[out], np.finfo(float).tiny)) * (z - x)
            free &= x > tol
            x[~free] = 0.0
        x = z
    return x


def stable_equilibrium(prob: EquilibriumProblem, max_iter: int = MAX_ITER,
                       tol: float = TOL_KKT, start=None) -> EquilibriumSolution:
    """Maximize total entropy over the energy split and reaction coordinates.

    Interior optima satisfy equal subsystem temperatures and zero reaction
    affinities; boundary optima (exhausted constituents) are certified by the
    sign of the KKT multipliers.  One independent reaction is solved as the
    zero of its affinity (``_affinity_root``; ``iterations`` counts affinity
    evaluations, and ``start`` overrides the starting extent); dependent
    reactions are then solved on a maximal independent subset and reported
    as the minimum-norm coordinates.  Several independent reactions are
    solved through the element-potential dual (``_dual``; ``iterations``
    counts its Newton steps), which needs every model's ``log_amounts`` hook
    and takes no ``start`` (ValueError).  Raises Infeasible when the
    constraint set is empty and NonConvergence (best iterate attached) when
    the answer fails its KKT certificate.
    """
    tau = prob.n_reactions
    n0 = [x for c in prob.n0 for x in c.amounts]
    cols = prob.network.stoich.T.tolist() if tau else []
    box = [_feasible_interval_1d(n0, col) for col in cols]
    # no reaction, or every one pinned (zero-width extent intervals): nothing to optimize
    if max((hi - lo for lo, hi in box), default=0.0) <= 1e-13:
        try:
            return solution_at(prob, np.zeros(tau))
        except (DomainError, RangeError) as exc:
            raise Infeasible(str(exc)) from exc

    rank = prob.network.rank
    if rank >= 2:
        if start is not None:
            raise ValueError("start applies to one independent reaction only")
        pt, it, failure = _dual(prob, max_iter)
        certificate = None
    else:
        # dependent reactions: solve on the first independent one
        j = prob.network.independent_columns[0] if rank < tau else 0
        if start is None:  # the middle of the extent interval, an infinite end at +-1
            x0 = sum(math.copysign(1.0, y) if math.isinf(y) else y for y in box[j]) / 2.0
        else:
            nu = prob.network.stoich
            eps = np.atleast_1d(np.asarray(start, dtype=float))
            if np.min(prob.n0_concat() + nu @ eps) < 0.0:
                raise Infeasible("supplied start is outside the feasible set")
            if rank < tau:
                eps, *_ = np.linalg.lstsq(nu[:, [j]], nu @ eps, rcond=None)
            x0 = float(eps[0])
        pt, it, failure, certificate = _affinity_root(prob, n0, cols[j], x0, box[j], max_iter)
        if rank < tau:  # the certificate is on the full network
            certificate = None
    sol = _package(prob, pt, it, certificate)
    if sol.kkt_residual <= max(tol, 1e-8):
        return sol
    raise NonConvergence(f"{failure} (kkt residual {sol.kkt_residual:.3g})", best=sol)


def _affinity_root(prob: EquilibriumProblem, n0: list, col: list, x0: float,
                   interval: tuple, max_iter: int) -> tuple:
    """The entropy maximum along one reaction, the column ``col`` acting on
    the initial amounts ``n0``: the zero of its affinity g(eps) = col . dS/dn,
    which falls along eps because S is concave.  Everything is in floats.

    From the starting extent ``x0`` the bracket moves geometrically toward
    the end of the feasible extent ``interval`` that g points to, and Brent's
    method refines it.  If g keeps its sign up to that end, the end is the
    optimum.  A point with no admissible state lies past the optimum, so g
    counts as infinite there, pointing back.  A probe of g is the model's
    ``ds_dn_along`` in a one-region problem where the model has it, else an
    evaluated point; each counts against ``max_iter``.  A candidate is
    certified from its probe's g, and only the answer becomes a point, unless
    its probe made one.  Returns (point, probes, what to report if the point
    fails its KKT certificate, the point's ``_kkt`` pair).
    """
    points, refused = {}, set()  # eps -> point where evaluated; eps without a state

    def amounts(x: float) -> list:
        return [a + c * x for a, c in zip(n0, col)]

    def at_point(x: float) -> float:
        points[x] = here = _point(prob, [x], amounts(x))
        return sum(map(mul, col, _ds_dn(prob, here)))

    probe = at_point
    if len(prob.models) == 1:
        probe = partial(prob.models[0].ds_dn_along, prob.total_energy, prob.params[0], n0, col)
    try:
        g0 = probe(x0)
        if g0 is None:  # the model has no such hook
            probe, g0 = at_point, at_point(x0)
    except (DomainError, RangeError, NegativeAmount) as exc:
        raise Infeasible(f"no admissible interior point: {exc}") from exc
    seen = {x0: g0}  # eps -> g, in order

    def affinity(x: float) -> float:
        if len(seen) >= max_iter:
            raise NonConvergence(f"iteration budget {max_iter} exhausted")
        try:
            seen[x] = probe(x)
        except (DomainError, RangeError, NegativeAmount):
            seen[x] = math.copysign(math.inf, x0 - x)
            refused.add(x)
        return seen[x]

    end = interval[1] if g0 > 0.0 else interval[0]
    if math.isfinite(end):  # approach the end, cutting the distance 8-fold
        origin, factor, x1 = end, 0.125, end + 0.125 * (x0 - end)
    else:  # step away 8-fold farther each time
        origin, factor, x1 = x0, 8.0, x0 + math.copysign(max(1.0, abs(x0)), g0)
    try:
        if g0 != 0.0:
            x, gx = expand_bracket(affinity, x1, g0, origin, factor=factor, limit=end)
            a = list(seen)[-2]  # the last point short of x: the bracket's near end
            brentq(affinity, a, x, xtol=_FLOAT_EPS * abs(x - a), fa=seen[a], fb=gx,
                   maxiter=max_iter)
        # near a wall g is steep, and only one side of the root may certify:
        # the candidates are the closest evaluated points on either side
        admissible = [(y, g) for y, g in seen.items() if y not in refused]
        candidates = [max((y for y, g in admissible if g >= 0.0), default=x0),
                      min((y for y, g in admissible if g <= 0.0), default=x0)]
        failure = f"affinity root near eps = {candidates[0]:.17g}"
    except RangeError:  # g keeps its sign up to the end: a boundary optimum
        candidates = [list(seen)[-1]]
        failure = f"affinity keeps its sign up to eps = {candidates[0]:.17g}"
    except NonConvergence as exc:
        candidates, failure = list(seen), str(exc)
    candidates = [y for y in dict.fromkeys(candidates) if y not in refused]
    # without an active constituent the residual is |g|, which then cannot win
    nu, wall, ranked = [[c] for c in col], _wall(n0), {}
    for y in sorted(candidates, key=lambda y: abs(seen[y])):
        n = amounts(y)
        if not ranked or abs(seen[y]) < min(r for r, _ in ranked.values()) or min(n) <= wall:
            ranked[y] = _kkt(nu, n, [seen[y]], wall)
    best = min((y for y in candidates if y in ranked), key=lambda y: ranked[y][0])
    answer = points.get(best) or _point(prob, [best], amounts(best))
    return answer, len(seen), failure, ranked[best]


def _reachable(nu: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """Mask of the constituents present in ``n0`` or produced from it.  A
    reaction runs, either way, once every constituent it consumes that way is
    present or produced; what it makes is then produced.  A cycle of
    reactions that needs an absent constituent it gives back is not run, and
    its answer fails the KKT certificate rather than passing unnoticed."""
    present = n0 > 0.0
    grown = True
    while grown:
        grown = False
        for col in np.concatenate([nu, -nu], axis=1).T:
            if present[col < 0.0].all() and not present[col > 0.0].all():
                present |= col > 0.0
                grown = True
    return present


def _dual(prob: EquilibriumProblem, max_iter: int) -> tuple[_Point, int, str]:
    """The entropy maximum over several independent reactions, from the dual
    in the element potentials lam and beta = 1/T:

        g(lam, beta) = S(n, T) - lam . (A n - A n0) - beta (E(n, T) - E),

    at the amounts n(lam, T) where dS/dn at fixed E is A^T lam, which each
    model's ``log_amounts`` hook gives.  The rows of A span the combinations
    of constituents the network conserves.  g is convex, with gradient
    (A n0 - A n, E - E(n, T)) and Hessian sum_k n_k w_k w_k^T / k_B, plus
    C T^2 in its (beta, beta) entry, where w_k = (A_k, u_k), u_k = k_B T
    dln n_k/dln T is dE/dn_k at fixed T, and C = dE/dT at fixed amounts.
    Newton steps backtrack on g, and the full step is taken once the
    predicted decrease falls below the rounding of g; that step ends the
    iteration.

    Constituents no reaction touches, and those no reaction can produce
    (``_reachable``), keep their initial amounts, and their energy at T
    enters E(n, T).  The iteration starts at the temperature of the initial
    composition, with the potentials that best reproduce it; an initial
    composition without an admissible state raises Infeasible.  Returns
    (point at the last amounts, Newton steps, what to report if the point
    fails its KKT certificate).
    """
    models, params, slices = prob.models, prob.params, prob.slices()
    nu, n0 = prob.network.stoich, prob.n0_concat()
    free = np.any(nu != 0.0, axis=1) & _reachable(nu, n0)
    # the conserved rows are orthonormal, so their singular values are at most 1
    _, sv, vt = np.linalg.svd(prob.network.conserved[:, free], full_matrices=False)
    a = vt[:int(np.sum(sv > 1e-10))]
    b = a @ n0[free]

    def at(lam: np.ndarray, beta: float) -> tuple:
        """(g, gradient, amounts, compositions, T, dln n/dln T) at (lam, beta)."""
        if not beta > 0.0:
            raise DomainError("1/T must be positive")
        t = 1.0 / beta
        potentials = np.zeros(n0.shape[0])
        potentials[free] = a.T @ lam
        n, dlog = n0.copy(), np.empty_like(n0)
        for m, p, sl in zip(models, params, slices):
            log_n, dlog[sl] = m.log_amounts(t, p, potentials[sl])
            moved = free[sl]
            if np.max(log_n[moved], initial=0.0) > 700.0:
                raise RangeError("amounts beyond any finite value")
            n[sl][moved] = np.exp(log_n[moved])
        comps = [Composition(n[sl]) for sl in slices]
        energies = [solve_energy_at_temperature(m, t, p, c)
                    for m, p, c in zip(models, params, comps)]
        entropy = sum(m.entropy(e, p, c) for m, e, p, c in zip(models, energies, params, comps))
        grad = np.append(b - a @ n[free], prob.total_energy - sum(energies))
        return entropy + lam @ grad[:-1] + beta * grad[-1], grad, n, comps, t, dlog

    try:
        t0 = _split(prob, [Composition(n0[sl]) for sl in slices])[1]
    except (DomainError, RangeError) as exc:
        raise Infeasible(f"no admissible state at the initial composition: {exc}") from exc
    # the potentials that best reproduce the initial amounts, absent ones at a small share
    target = np.maximum(n0, 1e-3 * n0.max())[free]
    at_zero = np.concatenate([m.log_amounts(t0, p, np.zeros(sl.stop - sl.start))[0]
                              for m, p, sl in zip(models, params, slices)])[free]
    kb = np.concatenate([np.full(sl.stop - sl.start, m.kb) for m, sl in zip(models, slices)])
    lam, *_ = np.linalg.lstsq(a.T, kb[free] * (at_zero - np.log(target)), rcond=None)
    beta = 1.0 / t0
    here = at(lam, beta)
    failure = f"iteration budget {max_iter} exhausted"
    for it in range(1, max_iter + 1):
        g, grad, n, comps, t, dlog = here
        w = np.vstack([a, kb[free] * t * dlog[free]])
        hess = (w * (n[free] / kb[free])) @ w.T
        hess[-1, -1] += t * t * sum(
            _fd_slopes(lambda x, m=m, p=p, c=c: solve_energy_at_temperature(m, x[0], p, c),
                       [t], step=H_REL * t)[0]
            for m, p, c in zip(models, params, comps))
        step = np.linalg.solve(hess, -grad)
        decrease = -float(grad @ step)
        if decrease <= 64.0 * _FLOAT_EPS * abs(g):
            here = at(lam + step[:-1], beta + step[-1])
            failure = f"element-potential dual converged in {it} steps"
            break
        alpha = 1.0
        for _ in range(60):
            try:
                trial = at(lam + alpha * step[:-1], beta + alpha * step[-1])
            except (DomainError, RangeError):
                trial = None
            if trial is not None and trial[0] <= g - 1e-4 * alpha * decrease:
                break
            alpha *= 0.5
        else:
            failure = f"no descent step after {it} steps"
            break
        lam, beta, here = lam + alpha * step[:-1], beta + alpha * step[-1], trial
    return _point_at(prob, here[2]), it, failure


def equilibrium_residual(sol: EquilibriumSolution, prob: EquilibriumProblem) -> float:
    """Stationarity residual max_l |sum_k nu_kl mu_k| / T with finite-difference
    chemical potentials mu_k = -T dS/dn_k.  Vacuously zero without reactions."""
    if prob.n_reactions == 0:
        return 0.0
    t_eq = sol.temperature
    mu = -t_eq * np.array([x for model, st in zip(prob.models, sol.states)
                           for x in _fd_ds_dn(model, st.energy, st.params, st.comp)])
    affinity = prob.network.stoich.T @ mu
    return float(np.max(np.abs(affinity)) / t_eq)


def gibbs_residual(model: MatterModel, st: SystemState, d_s: float,
                   d_beta) -> float:
    """Defect of the differential relation dE = T dS + sum_j F_j d beta_j:
    the closed-system case of ``open_systems.gibbs_open_residual``.

    T and the generalized forces are central finite differences at the state;
    the residual shrinks quadratically with the perturbation.
    """
    # imported here: open_systems imports this module
    from .open_systems import OpenState, gibbs_open_residual

    return gibbs_open_residual(None, model, OpenState(st.comp, st.energy, st.params),
                               d_s, np.zeros(len(st.comp)), d_beta)


def pressure_of(model: MatterModel, st: SystemState) -> float:
    """Pressure p = T dS/dV at fixed (E, n), which is -dE/dV at fixed (S, n):
    from the model's ``ds_dv`` hook, else the finite difference
    ``_fd_pressure``.  Raises DomainError where it is not finite."""
    return _pressure(model, st, None)


def _pressure(model: MatterModel, st: SystemState, temperature: float | None) -> float:
    """``pressure_of``, reading the temperature of a checked state when given."""
    slope = model.ds_dv(st.energy, st.params, st.comp)
    if slope is None:
        p = _fd_pressure(model, st)
    else:
        t = temperature_of(model, st) if temperature is None else temperature
        p = t * slope
    if not math.isfinite(p):
        raise DomainError(f"pressure {p:.6g} at volume {st.params.volume:.6g} is not finite")
    return p


def _fd_pressure(model: MatterModel, st: SystemState) -> float:
    """-dE/dV at fixed (S, n), differenced with a step of H_REL * V, which also
    serves V << 1; the fallback of ``pressure_of`` and its test oracle."""
    s0 = entropy_of(model, st)
    v0 = st.params.volume
    (slope,) = _fd_slopes(lambda v: energy_of(model, s0, st.params.with_volume(v[0]), st.comp),
                          [v0], step=H_REL * v0)
    return -slope
