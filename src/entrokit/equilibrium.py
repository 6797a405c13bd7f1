"""Stable and chemical equilibrium by constrained entropy maximization.

A problem fixes the total energy, the per-subsystem parameters, and an
initial composition; the free variables are the energy split across
subsystems and the reaction coordinates.  The inner split is solved by
temperature equalization (stationarity across subsystems).  Along one
reaction the outer maximization brackets the zero of the reaction's
affinity; over several it runs damped projected Newton with a log-barrier
fallback near the non-negativity boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .stoichiometry import TOL_NEG, Composition, ReactionCoordinates, ReactionNetwork

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
    """Reaction coordinates and what the solver needs there, each evaluated
    once: the amounts, the subsystem compositions, the equal-temperature
    split and the total entropy.  dS/dn is filled in on first use."""

    eps: np.ndarray
    n: np.ndarray
    comps: list
    energies: list
    temperature: float
    entropy: float
    ds_dn: np.ndarray | None = None


class _Evaluator:
    """Evaluation of the problem at reaction coordinates, and the energy split."""

    def __init__(self, prob: EquilibriumProblem):
        self.prob = prob
        self.slices = prob.slices()
        self.n0 = prob.n0_concat()
        self.nu = None if prob.network is None else prob.network.stoich

    def amounts(self, eps: np.ndarray) -> np.ndarray:
        if self.nu is None:
            return self.n0
        return self.n0 + self.nu @ eps

    def point(self, eps: np.ndarray) -> _Point:
        """The problem evaluated at ``eps``; raises DomainError, RangeError or
        NegativeAmount where it has no admissible state."""
        n = self.amounts(eps)
        comps = [Composition(n[sl]) for sl in self.slices]
        return _Point(eps, n, comps, *self.split(comps))

    def split(self, comps) -> tuple[list[float], float, float]:
        """Energy split equalizing subsystem temperatures; returns (energies,
        T, total entropy)."""
        prob = self.prob
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

    def ds_dn(self, pt: _Point) -> np.ndarray:
        """dS/dn for each constituent at the point's split, computed once."""
        if pt.ds_dn is None:
            parts = []
            for model, e, p, c in zip(self.prob.models, pt.energies, self.prob.params,
                                      pt.comps):
                d = model.ds_dn(e, p, c)
                if d is None:
                    d = _fd_ds_dn(model, e, p, c)
                parts.append(np.asarray(d, dtype=float))
            pt.ds_dn = np.concatenate(parts)
        return pt.ds_dn

    def gradient(self, eps: np.ndarray) -> np.ndarray:
        """dS_total/d eps; the energy-reallocation terms cancel at the split."""
        return self.nu.T @ self.ds_dn(self.point(eps))


def _fd_ds_dn(model: MatterModel, energy: float, params: Parameters,
              comp: Composition) -> np.ndarray:
    return _fd_slopes(lambda n: model.entropy(energy, params, Composition(n)),
                      comp.amounts, amounts=range(len(comp)))


def _feasible_interval_1d(n0: np.ndarray, col: np.ndarray) -> tuple[float, float]:
    lo, hi = -math.inf, math.inf
    for nk, c in zip(n0, col):
        if c > 0:
            lo = max(lo, -nk / c)
        elif c < 0:
            hi = min(hi, nk / (-c))
    return lo, hi


def _extent_box(ev: _Evaluator) -> np.ndarray:
    """The feasible extent interval of each reaction alone, one row each."""
    cols = () if ev.nu is None else ev.nu.T
    return np.array([_feasible_interval_1d(ev.n0, col) for col in cols]).reshape(-1, 2)


def _interior_start(ev: _Evaluator, box: np.ndarray, seed: int) -> np.ndarray:
    """A strictly feasible starting point with decent slack: the best of 256
    seeded draws from ``box`` (``_extent_box`` with unbounded sides cut).

    The zero extent is always feasible (the initial composition is), so a
    width-zero interval degenerates to that single point rather than being
    empty.
    """
    tau = box.shape[0]
    # probe axis-aligned box around eps = 0 for the best min-slack point
    rng = np.random.default_rng(seed)
    best, best_slack = np.zeros(tau), np.min(ev.amounts(np.zeros(tau)))
    for _ in range(256):
        theta = rng.random(tau)
        cand = box[:, 0] + theta * (box[:, 1] - box[:, 0])
        slack = np.min(ev.amounts(cand))
        if slack > best_slack:
            best, best_slack = cand, slack
    if best_slack < 0.0:
        raise Infeasible("no feasible reaction coordinates found")
    return best


def solution_at(prob: EquilibriumProblem, eps, iterations: int = 0) -> EquilibriumSolution:
    """Package the split, potentials and residuals at given reaction coordinates."""
    ev = _Evaluator(prob)
    eps = np.atleast_1d(np.asarray(eps, dtype=float)) if prob.n_reactions else np.zeros(0)
    return _package(ev, ev.point(eps), iterations)


def _package(ev: _Evaluator, pt: _Point, iterations: int) -> EquilibriumSolution:
    prob = ev.prob
    states = tuple(
        SystemState(e, p, c) for e, p, c in zip(pt.energies, prob.params, pt.comps)
    )
    if prob.n_reactions:
        dsdn = ev.ds_dn(pt)
        mu = -pt.temperature * dsdn
        affinities = ev.nu.T @ mu
        kkt, active = _kkt(ev, pt)
        degenerate = prob.network.rank < prob.n_reactions
        if degenerate:
            eps_report, *_ = np.linalg.lstsq(ev.nu, pt.n - ev.n0, rcond=1e-10)
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


def _kkt(ev: _Evaluator, pt: _Point) -> tuple[float, tuple]:
    """KKT residual at the point, and its active constituents: those with
    amounts at most 1e-9 times the largest initial amount (at least 1)."""
    grad = ev.nu.T @ ev.ds_dn(pt)
    scale = max(1.0, float(np.max(np.abs(ev.n0))))
    active = tuple(int(k) for k in np.nonzero(pt.n <= 1e-9 * scale)[0])
    if not active:
        return float(np.max(np.abs(grad))), active
    # residual of the KKT system grad = -sum(lambda_k nu_k), lambda >= 0
    a = ev.nu[list(active), :].T
    lam, *_ = np.linalg.lstsq(a, -grad, rcond=None)
    lam = np.maximum(lam, 0.0)
    return float(np.max(np.abs(grad + a @ lam))), active


def stable_equilibrium(prob: EquilibriumProblem, seed: int = 0,
                       max_iter: int = MAX_ITER, tol: float = TOL_KKT,
                       start=None) -> EquilibriumSolution:
    """Maximize total entropy over the energy split and reaction coordinates.

    Interior optima satisfy equal subsystem temperatures and zero reaction
    affinities; boundary optima (exhausted constituents) are certified by the
    sign of the KKT multipliers.  One independent reaction is solved as the
    zero of its affinity (``_affinity_root``; ``iterations`` counts affinity
    evaluations), more by damped Newton (``_newton``).  Dependent reactions
    are solved on a maximal independent subset and reported as the
    minimum-norm coordinates.  ``start`` overrides the automatic starting
    point.  Raises Infeasible when the constraint set is empty and
    NonConvergence (best iterate attached) when the iteration budget runs out.
    """
    tau = prob.n_reactions
    ev = _Evaluator(prob)
    # no reaction, or every one pinned (zero-width extent intervals): nothing to optimize
    box = _extent_box(ev)
    if np.max(box[:, 1] - box[:, 0], initial=0.0) <= 1e-13:
        try:
            return solution_at(prob, np.zeros(tau))
        except (DomainError, RangeError) as exc:
            raise Infeasible(str(exc)) from exc

    if start is not None:
        eps = np.atleast_1d(np.asarray(start, dtype=float))
        if np.min(ev.amounts(eps)) < 0.0:
            raise Infeasible("supplied start is outside the feasible set")
    solve_ev = ev
    if prob.network.rank < tau:
        solve_ev = _Evaluator(EquilibriumProblem(
            prob.models, prob.params, prob.n0, prob.total_energy,
            network=ReactionNetwork(ev.nu[:, list(prob.network.independent_columns)])))
        box = _extent_box(solve_ev)
        if start is not None:
            eps, *_ = np.linalg.lstsq(solve_ev.nu, ev.nu @ eps, rcond=None)
    if start is None:
        cut = np.nan_to_num(box, posinf=1.0, neginf=-1.0)
        eps = cut.mean(axis=1) if len(box) == 1 else _interior_start(solve_ev, cut, seed)
    try:
        pt = solve_ev.point(eps)
    except (DomainError, RangeError, NegativeAmount) as exc:
        raise Infeasible(f"no admissible interior point: {exc}") from exc

    if len(box) == 1:
        pt, it, failure = _affinity_root(solve_ev, pt, box[0], max_iter)
    else:
        pt, it, failure = _newton(solve_ev, pt, max_iter, tol)
    # certify the answer by its KKT residual
    sol = _package(ev, pt, it)
    if failure is None or sol.kkt_residual <= max(tol, 1e-8):
        return sol
    raise NonConvergence(f"{failure} (kkt residual {sol.kkt_residual:.3g})", best=sol)


def _affinity_root(ev: _Evaluator, pt: _Point, interval: np.ndarray,
                   max_iter: int) -> tuple:
    """The entropy maximum along one reaction: the zero of its affinity
    g(eps) = nu . dS/dn, which falls along eps because S is concave.

    From the starting point the bracket moves geometrically toward the end
    of the feasible extent ``interval`` that g points to, and Brent's method
    refines it.  If g keeps its sign up to that end, the end is the optimum.
    A point with no admissible state lies past the optimum, so g counts as
    infinite there, pointing back.  Every evaluation of g counts against
    ``max_iter``.  Returns (point, evaluations, what to report if the point
    fails its KKT certificate).
    """
    col = ev.nu[:, 0]
    x0 = float(pt.eps[0])
    seen = {x0: (pt, float(col @ ev.ds_dn(pt)))}  # eps -> (point, g), in order

    def affinity(x: float) -> float:
        if len(seen) >= max_iter:
            raise NonConvergence(f"iteration budget {max_iter} exhausted")
        try:
            here = ev.point(np.array([x]))
        except (DomainError, RangeError, NegativeAmount):
            seen[x] = (None, math.copysign(math.inf, x0 - x))
        else:
            seen[x] = (here, float(col @ ev.ds_dn(here)))
        return seen[x][1]

    g0 = seen[x0][1]
    end = float(interval[1] if g0 > 0.0 else interval[0])
    if math.isfinite(end):  # approach the end, cutting the distance 8-fold
        origin, factor, x1 = end, 0.125, end + 0.125 * (x0 - end)
    else:  # step away 8-fold farther each time
        origin, factor, x1 = x0, 8.0, x0 + math.copysign(max(1.0, abs(x0)), g0)
    try:
        if g0 != 0.0:
            x, gx = expand_bracket(affinity, x1, g0, origin, factor=factor, limit=end)
            a = list(seen)[-2]  # the last point short of x: the bracket's near end
            brentq(affinity, a, x, xtol=_FLOAT_EPS * abs(x - a), fa=seen[a][1], fb=gx,
                   maxiter=max_iter)
        # near a wall g is steep, and only one side of the root may certify:
        # the candidates are the closest evaluated points on either side
        admissible = [(y, g) for y, (p, g) in seen.items() if p is not None]
        candidates = [max((y for y, g in admissible if g >= 0.0), default=x0),
                      min((y for y, g in admissible if g <= 0.0), default=x0)]
        failure = f"affinity root near eps = {candidates[0]:.17g}"
    except RangeError:  # g keeps its sign up to the end: a boundary optimum
        candidates = [list(seen)[-1]]
        failure = f"affinity keeps its sign up to eps = {candidates[0]:.17g}"
    except NonConvergence as exc:
        candidates, failure = list(seen), str(exc)
    best = min((seen[y][0] for y in candidates if seen[y][0] is not None),
               key=lambda p: _kkt(ev, p)[0])
    return best, len(seen), failure


def _newton(ev: _Evaluator, pt: _Point, max_iter: int,
            tol: float) -> tuple[_Point, int, str | None]:
    """Damped projected Newton ascent over several reaction coordinates, with
    a log-barrier fallback near the non-negativity boundary.  Returns (point,
    iterations, failure); failure is None when the KKT test passed."""
    n_scale = max(1.0, float(np.max(np.abs(ev.n0))))
    barrier = 0.0  # switched on near the boundary
    for it in range(1, max_iter + 1):
        # each iteration starts from the point the last line search accepted
        eps, n_here = pt.eps, pt.n
        grad = ev.nu.T @ ev.ds_dn(pt)
        if barrier > 0.0:
            grad = grad + barrier * (ev.nu.T @ (1.0 / np.maximum(n_here, 1e-300)))

        interior = np.min(n_here) > 1e-9 * n_scale
        if np.max(np.abs(grad)) <= tol and (interior or barrier > 0.0):
            if barrier > 1e-12:
                barrier /= 64.0
                continue
            return pt, it, None

        step = _ascent_step(_hessian(ev, pt, barrier), grad)

        # stay strictly feasible: cap the step at the boundary
        change = ev.nu @ step
        falling = change < 0.0
        alpha = float(np.min(0.995 * n_here[falling] / -change[falling], initial=1.0))
        if alpha <= 0.0:
            alpha = 1e-16

        # backtracking on the (possibly barrier-augmented) objective; once the
        # predicted gain drops below float resolution, take the Newton step
        # as-is so the iteration can polish to machine precision
        base = pt.entropy + barrier * float(np.sum(np.log(np.maximum(n_here, 1e-300))))
        gain = float(grad @ step)
        gain_floor = 64.0 * _FLOAT_EPS * max(1.0, abs(base))
        step_norm = float(np.linalg.norm(step))
        step_floor = 1e-6 * max(1.0, float(np.linalg.norm(eps)))
        improved = False
        for _ in range(60):
            cand = eps + alpha * step
            try:
                # a step lost to rounding lands on the current point
                trial = pt if np.array_equal(cand, eps) else ev.point(cand)
            except (DomainError, RangeError, NegativeAmount):
                alpha *= 0.5
                continue
            if np.min(trial.n) <= 0.0:
                alpha *= 0.5
                continue
            merit = trial.entropy + barrier * float(np.sum(np.log(trial.n)))
            predicted = alpha * gain
            polishing = predicted <= gain_floor and alpha * step_norm <= step_floor
            if merit > base + 1e-4 * predicted or polishing:
                pt = trial
                improved = True
                break
            alpha *= 0.5
        if not improved:
            if barrier == 0.0 and np.min(n_here) <= 1e-6 * n_scale:
                barrier = 1e-6 * n_scale  # log-barrier fallback near the boundary
                continue
            if barrier > 1e-12:
                barrier /= 64.0
                continue
            failure = f"no ascent step after {it} iterations"
            break
    else:
        it, failure = max_iter, f"iteration budget {max_iter} exhausted"
    return pt, it, failure


def _hessian(ev: _Evaluator, pt: _Point, barrier: float) -> np.ndarray:
    """Hessian in eps of the barrier-augmented entropy, from the models'
    ``d2s`` hooks at the equal-temperature split; ``_fd_hessian`` when a model
    has no hook.

    Changing the amounts by dn moves the split by dE_i = (dlam - b_i . dn_i) / a_i
    with sum_i dE_i = 0 (a_i = d2S_i/dE_i^2, b_i = d2S_i/dE_i dn_i), so the
    Hessian in the amounts is blockdiag(H_i - b_i b_i^T / a_i) + c c^T / sum_i 1/a_i
    with c_i = b_i / a_i; for one subsystem it reduces to H.  Wherever a central
    step of ``_fd_hessian`` would leave the domain, it returns that route's
    steepest-ascent scaling -I as well.
    """
    prob, eps = ev.prob, pt.eps
    parts = [m.d2s(e, p, c)
             for m, e, p, c in zip(prob.models, pt.energies, prob.params, pt.comps)]
    if any(d is None for d in parts):
        return _fd_hessian(ev, eps, barrier)
    # where a central step would make an amount negative, the gradients that
    # route differences cannot be evaluated; the ground bound is not probed, as
    # the entropy falls to -inf there and ascent moves away from it
    step = np.diag(H_REL * np.maximum(1.0, np.abs(eps)))
    stepped = ev.n0[:, None] + ev.nu @ (eps[:, None] + np.hstack([step, -step]))
    if stepped.min() < -TOL_NEG:
        return -np.eye(eps.shape[0])
    if len(parts) == 1:
        h_nn = parts[0][2]
    else:
        r = ev.n0.shape[0]
        h_nn, c, inv_a_sum = np.zeros((r, r)), np.zeros(r), 0.0
        for sl, (a, b, h) in zip(ev.slices, parts):
            h_nn[sl, sl] = h - np.outer(b, b) / a
            c[sl] = b / a
            inv_a_sum += 1.0 / a
        h_nn += np.outer(c, c) / inv_a_sum
    hess = ev.nu.T @ h_nn @ ev.nu
    if barrier > 0.0:
        # written as a product so an empty amount no reaction moves adds 0, not nan
        scaled = ev.nu / np.maximum(pt.n, 1e-300)[:, None]
        hess -= barrier * (scaled.T @ scaled)
    return 0.5 * (hess + hess.T)


def _fd_hessian(ev: _Evaluator, eps: np.ndarray, barrier: float) -> np.ndarray:
    def grad(e):
        g = ev.gradient(e)
        if barrier > 0.0:
            g = g + barrier * (ev.nu.T @ (1.0 / np.maximum(ev.amounts(e), 1e-300)))
        return g

    try:
        hess = _fd_slopes(grad, eps)
    except (DomainError, RangeError, NegativeAmount):
        return -np.eye(eps.shape[0])  # fall back to steepest ascent scaling
    return 0.5 * (hess + hess.T)


def _ascent_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton ascent direction, guarded against indefinite Hessians."""
    try:
        eigvals = np.linalg.eigvalsh(hess)
        if np.max(eigvals) < -1e-14:
            step = np.linalg.solve(hess, -grad)
            if float(grad @ step) > 0.0:
                return step
    except np.linalg.LinAlgError:
        pass
    norm = float(np.linalg.norm(grad))
    return grad / max(norm, 1e-300)


def equilibrium_residual(sol: EquilibriumSolution, prob: EquilibriumProblem) -> float:
    """Stationarity residual max_l |sum_k nu_kl mu_k| / T with finite-difference
    chemical potentials mu_k = -T dS/dn_k.  Vacuously zero without reactions."""
    if prob.n_reactions == 0:
        return 0.0
    t_eq = sol.temperature
    mu_parts = []
    for model, st in zip(prob.models, sol.states):
        dsdn = _fd_ds_dn(model, st.energy, st.params, st.comp)
        mu_parts.append(-t_eq * dsdn)
    mu = np.concatenate(mu_parts)
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
