"""Stable and chemical equilibrium by constrained entropy maximization.

A problem fixes the total energy, the per-subsystem parameters, and an
initial composition; the free variables are the energy split across
subsystems and the amounts the reactions can reach.  The inner split is
solved by temperature equalization (stationarity across subsystems).  Along
one independent reaction the maximization finds the zero of the reaction's
affinity in plain floats, by ``roots.increasing_root`` in the distance from
the end it points to: a probe is the model's ``ds_dn_along`` in a one-region
problem, else an evaluated point, and only the answer becomes a state.  Over
several it minimizes the convex dual in the element potentials and 1/T
(W. C. Reynolds, STANJAN, 1986; Gordon & McBride, NASA RP-1311, 1994): each
model gives its amounts at given potentials and temperature in closed form
(the ``log_amounts`` hook), and the answer is packaged and certified at those
amounts.  Certificates take nonnegative least-squares multipliers.
Everything is in plain floats: every linear solve, the dual's included, runs
on the one Jacobi SVD of ``stoichiometry``.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from operator import mul

from .errors import (
    DomainError,
    FrozenRecord,
    Infeasible,
    NegativeAmount,
    NonConvergence,
    RangeError,
    Record,
)
from .matter_models import (
    H_REL,
    MatterModel,
    SystemState,
    _fd_slopes,
    entropy_of,
    solve_energy_at_temperature,
    temperature_of,
)
from .roots import increasing_root
from .stoichiometry import (
    Composition,
    ReactionCoordinates,
    ReactionNetwork,
    _float_vector,
    _lstsq,
    _pinv,
    _svd,
)

MAX_ITER = 200
TOL_KKT = 1e-10

_FLOAT_EPS = sys.float_info.epsilon


class EquilibriumProblem(FrozenRecord):
    """Entropy maximization over an energy split and reaction coordinates.

    Subsystems share the total energy budget; the network acts on the
    concatenation of their compositions (``n0`` entries in declaration
    order, each a Composition or its amounts).  ``network=None`` means
    non-reactive.
    """

    __slots__ = ("models", "params", "n0", "total_energy", "network")

    def __init__(self, models, params, n0, total_energy: float,
                 network: ReactionNetwork | None = None):
        models, params, n0 = tuple(models), tuple(params), tuple(n0)
        if not (len(models) == len(params) == len(n0)) or not models:
            raise ValueError("models, params and n0 must align and be non-empty")
        n0 = tuple(c if isinstance(c, Composition) else Composition(c) for c in n0)
        total_energy = float(total_energy)
        if network is not None:
            r = sum(len(c) for c in n0)
            if network.n_constituents != r:
                raise ValueError(
                    f"network has {network.n_constituents} constituents, "
                    f"problem concatenates {r}"
                )
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "total_energy", total_energy)
        object.__setattr__(self, "network", network)

    @property
    def n_reactions(self) -> int:
        return 0 if self.network is None else self.network.n_reactions

    def slices(self) -> list[slice]:
        out, start = [], 0
        for comp in self.n0:
            out.append(slice(start, start + len(comp)))
            start += len(comp)
        return out

    def n0_concat(self) -> list:
        return [x for c in self.n0 for x in c.amounts]


class EquilibriumSolution(FrozenRecord):
    """A stationary point of the constrained entropy maximization."""

    __slots__ = ("eps_se", "energies", "states", "entropy", "temperature",
                 "chemical_potentials", "affinities", "kkt_residual", "boundary", "active",
                 "degenerate", "iterations")

    def __init__(self, eps_se: ReactionCoordinates, energies: tuple, states: tuple,
                 entropy: float, temperature: float, chemical_potentials: tuple,
                 affinities: tuple, kkt_residual: float, boundary: bool, active: tuple,
                 degenerate: bool, iterations: int):
        object.__setattr__(self, "eps_se", eps_se)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "entropy", entropy)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "chemical_potentials", chemical_potentials)
        object.__setattr__(self, "affinities", affinities)
        object.__setattr__(self, "kkt_residual", kkt_residual)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "degenerate", degenerate)
        object.__setattr__(self, "iterations", iterations)


class _Point(Record):
    """Reaction coordinates and what the solvers need there, each evaluated
    once: the amounts (floats), the subsystem compositions, the
    equal-temperature split and the total entropy.  dS/dn is filled in on
    first use."""

    __slots__ = ("eps", "n", "comps", "energies", "temperature", "entropy", "ds_dn")

    def __init__(self, eps: list, n: list, comps: list, energies: list, temperature: float,
                 entropy: float, ds_dn: list | None = None):
        self.eps, self.n, self.comps, self.energies = eps, n, comps, energies
        self.temperature, self.entropy, self.ds_dn = temperature, entropy, ds_dn


def _point(prob: EquilibriumProblem, eps, n: list) -> _Point:
    """The problem evaluated at the amounts ``n`` (floats), which the
    coordinates ``eps`` reach; raises DomainError, RangeError or
    NegativeAmount where it has no admissible state."""
    comps = [Composition(n[sl]) for sl in prob.slices()]
    return _Point(eps, n, comps, *_split(prob, comps))


def _moved_by(prob: EquilibriumProblem, n: list) -> list:
    """The minimum-norm coordinates that take the initial amounts to ``n``."""
    return _lstsq(prob.network.rows, [a - b for a, b in zip(n, prob.n0_concat())])


def _max_abs(values) -> float:
    """The largest |x| among ``values`` (0 without any); NaN if one is NaN."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values), default=0.0)


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

    t_eq, _ = increasing_root(excess, 1.0)  # the excess grows with T
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
        pt.ds_dn = [x for model, e, p, c in zip(prob.models, pt.energies, prob.params, pt.comps)
                    for x in model.ds_dn(e, p, c)]
    return pt.ds_dn


def _wall(n0: list) -> float:
    """Amounts at most this count as exhausted: 1e-9 of the largest initial
    one, at least 1e-9."""
    return 1e-9 * max(1.0, max(map(abs, n0), default=0.0))


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
    eps = _float_vector(eps, "reaction coordinates") if prob.n_reactions else ()
    if len(eps) != prob.n_reactions:
        raise ValueError(f"{len(eps)} reaction coordinates for {prob.n_reactions} reactions")
    n = prob.n0_concat()
    if prob.n_reactions:
        n = [a + sum(map(mul, row, eps)) for a, row in zip(n, prob.network.rows)]
    return _package(prob, _point(prob, list(eps), n), iterations)


def _package(prob: EquilibriumProblem, pt: _Point, iterations: int,
             certificate: tuple | None = None) -> EquilibriumSolution:
    """The solution at a point; ``certificate`` is its ``_kkt`` pair when
    already known."""
    states = tuple(map(SystemState, pt.energies, prob.params, pt.comps))
    if prob.n_reactions:
        net, dsdn, t = prob.network, _ds_dn(prob, pt), pt.temperature
        mu = tuple([-t * x for x in dsdn])
        affinities = tuple([sum(map(mul, col, mu)) for col in net.columns])
        if certificate is None:
            grad = [sum(map(mul, col, dsdn)) for col in net.columns]
            certificate = _kkt(net.rows, pt.n, grad, _wall(prob.n0_concat()))
        kkt, active = certificate
        degenerate = net.rank < prob.n_reactions
        eps_report = _moved_by(prob, pt.n) if degenerate else pt.eps
    else:
        mu = affinities = eps_report = active = ()
        kkt = 0.0
        degenerate = False

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
    is ``grad`` (floats; ``nu`` has one row of floats per constituent), and
    its active constituents: those with amounts at most ``wall``.  Without
    one the residual is max |grad|: along one reaction, the |g| of the probe."""
    active = () if min(n) > wall else tuple(k for k, x in enumerate(n) if x <= wall)
    if not active:
        return _max_abs(grad), active
    # residual of the KKT system grad = -sum(lambda_k nu_k), lambda >= 0
    a = [[nu[k][l] for k in active] for l in range(len(grad))]
    lam = _nnls(a, [-g for g in grad])
    return _max_abs([g + sum(map(mul, row, lam)) for g, row in zip(grad, a)]), active


def _nnls(a: list, b: list) -> list:
    """x >= 0 minimizing |a x - b| (``a`` a list of rows), by the active-set
    method of Lawson and Hanson (Solving Least Squares Problems, 1974, ch. 23)."""
    cols = list(zip(*a))
    n, rcond = len(cols), _FLOAT_EPS * max(len(a), len(cols))
    tol = 10.0 * rcond * max(1.0, max(sum(map(abs, col)) for col in cols))
    x, free = [0.0] * n, [False] * n
    for _ in range(3 * n):
        r = [bi - sum(map(mul, row, x)) for row, bi in zip(a, b)]
        w = [sum(map(mul, col, r)) for col in cols]
        bound = [k for k in range(n) if not free[k]]
        if not bound or max(w[k] for k in bound) <= tol:
            break
        free[max(bound, key=w.__getitem__)] = True
        while True:  # solve on the free set, stepping back while an entry is not positive
            on = [k for k in range(n) if free[k]]
            pinv = dict(zip(on, _pinv([[row[k] for k in on] for row in a], rcond)))
            z = [sum(map(mul, pinv[k], b)) if free[k] else 0.0 for k in range(n)]
            out = [k for k in on if z[k] <= 0.0]
            if not out:
                break
            step = min(x[k] / max(x[k] - z[k], sys.float_info.min) for k in out)
            x = [xk + step * (zk - xk) for xk, zk in zip(x, z)]
            free = [f and xk > tol for f, xk in zip(free, x)]
            x = [xk if f else 0.0 for xk, f in zip(x, free)]
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
    n0 = prob.n0_concat()
    cols = prob.network.columns if tau else ()
    box = [_feasible_interval_1d(n0, col) for col in cols]
    # no reaction, or every one pinned (the amounts it can move span a zero
    # width): nothing to optimize
    if max(((hi - lo) * max(map(abs, col)) for (lo, hi), col in zip(box, cols)),
           default=0.0) <= 1e-13:
        try:
            return solution_at(prob, [0.0] * tau)
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
            eps = _float_vector(start, "start")
            if len(eps) != tau:
                raise ValueError(f"start has {len(eps)} extents for {tau} reactions")
            moved = [sum(map(mul, row, eps)) for row in prob.network.rows]
            if min(a + b for a, b in zip(n0, moved)) < 0.0:
                raise Infeasible("supplied start is outside the feasible set")
            if rank < tau:
                eps = _lstsq([[c] for c in cols[j]], moved)
            x0 = eps[0]
        pt, it, failure, certificate = _affinity_root(prob, n0, cols[j], x0, box[j], max_iter)
        if rank < tau:  # the certificate is on the full network
            certificate = None
    sol = _package(prob, pt, it, certificate)
    if sol.kkt_residual <= max(tol, 1e-8):
        return sol
    raise NonConvergence(f"{failure()} (kkt residual {sol.kkt_residual:.3g})", best=sol)


def _affinity_root(prob: EquilibriumProblem, n0: list, col: list, x0: float,
                   interval: tuple, max_iter: int) -> tuple:
    """The entropy maximum along one reaction, the column ``col`` acting on
    the initial amounts ``n0``: the zero of its affinity g(eps) = col . dS/dn,
    which falls along eps because S is concave.  Everything is in floats.

    g at the start ``x0`` points to an end of the feasible extent ``interval``;
    ``roots.increasing_root`` searches the distance d from it, where what the
    end exhausts is exactly 0, so amounts near the wall are exact (toward an
    infinite end, the distance from x0).  f(d) = -u . dS/dn at the amounts
    origin + u d, u = +-col, rises with d, and the search ends once
    |f| <= 1e-12 max|col|, the rounding level of g.  A point with no
    admissible state lies past the optimum: f is infinite there, pointing
    back to x0.  Once the exhausted amounts are at most the wall and g still
    points into it, g is probed at the end, the optimum if g points into the
    wall there too.  A probe is the model's ``ds_dn_along`` in a one-region
    problem, else an evaluated point; each counts against ``max_iter``.  The
    candidates are the closest admissible probes on either side of the root,
    kept as the probes come in; a candidate is certified from its probe's g,
    and only the answer becomes a point, unless its probe made one.  Returns
    (point, probes, a function giving what to report if the point fails its
    KKT certificate, the point's ``_kkt`` pair).
    """
    # a point probe reads the frame (anchor, way) when it runs: at first eps = x0
    points, refused, anchor, way = {}, set(), 0.0, 1.0  # d -> point; d without a state
    if len(prob.models) == 1:
        slope = partial(prob.models[0].ds_dn_along, prob.total_energy, prob.params[0])
    else:
        def slope(origin: list, u: list, d: float) -> float:  # keeps its point
            n = [a + c * d for a, c in zip(origin, u)]
            points[d] = here = _point(prob, [anchor + way * d], n)
            return sum(map(mul, u, _ds_dn(prob, here)))

    try:
        g0 = slope(n0, col, x0)
    except (DomainError, RangeError, NegativeAmount) as exc:
        raise Infeasible(f"no admissible interior point: {exc}") from exc
    end, toward = (interval[1], 1.0) if g0 > 0.0 else (interval[0], -1.0)
    # d runs from that end back toward x0, or from x0 outward to an infinite end
    anchor, way = (end, -toward) if math.isfinite(end) else (x0, toward)
    origin = [0.0 if c and -a / c == end else a + c * anchor for a, c in zip(n0, col)]
    u, d0, wall, scale = [way * c for c in col], abs(anchor - x0), _wall(n0), max(map(abs, col))
    seen, points = {d0: -way * g0}, {d0: points.get(x0)}  # d -> f, in order
    # the closest admissible probes with f <= 0 and with f >= 0
    below, above = (d0, math.inf) if seen[d0] <= 0.0 else (-math.inf, d0)
    # this close to the end, every constituent it exhausts is at most the wall
    d_wall = wall / scale

    def at(d: float) -> tuple:  # (extent, amounts) at the distance d
        if d == d0:
            return x0, [a + c * x0 for a, c in zip(n0, col)]
        return anchor + way * d, [a + c * d for a, c in zip(origin, u)]

    def affinity(d: float) -> float:
        nonlocal below, above
        f = seen.get(d)
        if f is None:
            if len(seen) >= max_iter:
                raise NonConvergence(f"iteration budget {max_iter} exhausted")
            try:
                f = -slope(origin, u, d)
            except (DomainError, RangeError, NegativeAmount):
                f = math.copysign(math.inf, d - d0)
                refused.add(d)
            else:
                if f <= 0.0 and d > below:
                    below = d
                if f >= 0.0 and d < above:
                    above = d
            seen[d] = f
        if f > 0.0 and 0.0 < d <= d_wall and affinity(0.0) >= 0.0:
            raise RangeError("the affinity points into the wall at the wall itself")
        return f

    try:
        if g0 != 0.0:
            increasing_root(affinity, d0 if anchor == end else max(1.0, abs(x0)),
                            interval[1] - interval[0], ftol=1e-12 * scale)
        # near a wall f is steep, and only one side of the root may certify:
        # the candidates are the closest evaluated points on either side
        candidates = (d0 if below == -math.inf else below, d0 if above == math.inf else above)
        failure = partial("affinity root near eps = {:.17g}".format,
                          anchor + way * candidates[0])
    except RangeError:  # f keeps its sign up to the end: a boundary optimum
        candidates = (next(reversed(seen)),)
        failure = partial("affinity keeps its sign up to eps = {:.17g}".format,
                          anchor + way * candidates[0])
    except NonConvergence as exc:
        candidates, failure = tuple(seen), partial(str, exc)
    # without an active constituent the residual is the probe's |g|, so a
    # candidate whose |g| is not below the best residual so far cannot win
    nu, best = [[c] for c in col], None  # (residual, d, extent, amounts, _kkt pair)
    for d in dict.fromkeys(candidates):
        if d in refused:
            continue
        eps, n = at(d)
        if best is None or abs(seen[d]) < best[0] or min(n) <= wall:
            certificate = _kkt(nu, n, [-way * seen[d]], wall)
            if best is None or certificate[0] < best[0]:
                best = certificate[0], d, eps, n, certificate
    _, d, eps, n, certificate = best
    return points.get(d) or _point(prob, [eps], n), len(seen), failure, certificate


def _reachable(net: ReactionNetwork, n0: list) -> list:
    """Flags of the constituents present in ``n0`` or produced from it.  A
    reaction runs, either way, once every constituent it consumes that way is
    present or produced; what it makes is then produced.  A cycle of
    reactions that needs an absent constituent it gives back is not run, and
    its answer fails the KKT certificate rather than passing unnoticed."""
    present = [x > 0.0 for x in n0]
    ways = [*net.columns, *([-c for c in col] for col in net.columns)]
    grown = True
    while grown:
        grown = False
        for col in ways:
            if (all(p for p, c in zip(present, col) if c < 0.0)
                    and not all(p for p, c in zip(present, col) if c > 0.0)):
                present = [p or c > 0.0 for p, c in zip(present, col)]
                grown = True
    return present


def _dual(prob: EquilibriumProblem, max_iter: int) -> tuple:
    """The entropy maximum over several independent reactions, from the dual
    in the element potentials lam and beta = 1/T:

        g(lam, beta) = S(n, T) - lam . (A n - A n0) - beta (E(n, T) - E),

    at the amounts n(lam, T) where dS/dn at fixed E is A^T lam, which each
    model's ``log_amounts`` hook gives.  The rows of A span the combinations
    of constituents the network conserves.  g is convex, with gradient
    (A n0 - A n, E - E(n, T)) and Hessian sum_k n_k w_k w_k^T, plus C T^2 in
    its (beta, beta) entry, where w_k = (A_k, u_k), u_k = T dln n_k/dln T is
    dE/dn_k at fixed T, and C = dE/dT at fixed amounts.
    Newton steps, least-squares solutions of the Newton system in (lam,
    beta) scaled to a unit diagonal, backtrack on g, and the full step is
    taken once the predicted decrease falls below the rounding of g; that
    step ends the iteration.  A trial point with no admissible state or a
    non-finite g is refused.

    Constituents no reaction touches, and those no reaction can produce
    (``_reachable``), keep their initial amounts, and their energy at T
    enters E(n, T).  The iteration starts at the temperature of the initial
    composition, with the potentials that best reproduce it; an initial
    composition without an admissible state raises Infeasible.  Returns
    (point at the last amounts, Newton steps, a function giving what to
    report if the point fails its KKT certificate).
    """
    models, params, slices = prob.models, prob.params, prob.slices()
    n0, net = prob.n0_concat(), prob.network
    free = [k for k, (row, reached) in enumerate(zip(net.rows, _reachable(net, n0)))
            if reached and any(row)]
    # the conserved rows are orthonormal, so their singular values are at most 1
    sv, _, v = _svd([[row[k] for k in free] for row in net.conserved])
    a = [vk for sk, vk in zip(sv, v) if sk > 1e-10]
    b = [sum(n0[k] * x for k, x in zip(free, ak)) for ak in a]

    def at(lam: list, beta: float) -> tuple:
        """(g, gradient, amounts, compositions, T, dln n/dln T) at (lam, beta)."""
        if not beta > 0.0:
            raise DomainError("1/T must be positive")
        t = 1.0 / beta
        potentials = [0.0] * len(n0)
        for k, col in zip(free, zip(*a)):
            potentials[k] = sum(map(mul, col, lam))
        log_n, dlog = [], []
        for m, p, sl in zip(models, params, slices):
            logs, slopes = m.log_amounts(t, p, potentials[sl])
            log_n += logs
            dlog += slopes
        if any(log_n[k] > 700.0 for k in free):
            raise RangeError("amounts beyond any finite value")
        n = n0.copy()
        for k in free:
            n[k] = math.exp(log_n[k])
        comps = [Composition(n[sl]) for sl in slices]
        energies = [solve_energy_at_temperature(m, t, p, c)
                    for m, p, c in zip(models, params, comps)]
        entropy = sum(m.entropy(e, p, c) for m, e, p, c in zip(models, energies, params, comps))
        grad = [bk - sum(n[k] * x for k, x in zip(free, ak)) for ak, bk in zip(a, b)]
        grad.append(prob.total_energy - sum(energies))
        return entropy + sum(map(mul, lam, grad)) + beta * grad[-1], grad, n, comps, t, dlog

    def moved(alpha: float) -> tuple:  # (lam, beta) a share alpha along the Newton step
        return [x + alpha * d for x, d in zip(lam, step)], beta + alpha * step[-1]

    try:
        t0 = _split(prob, [Composition(n0[sl]) for sl in slices])[1]
    except (DomainError, RangeError) as exc:
        raise Infeasible(f"no admissible state at the initial composition: {exc}") from exc
    # the potentials that best reproduce the initial amounts, absent ones at a
    # small share, which is positive even where it underflows
    floor = max(1e-3 * max(n0), math.ulp(0.0))
    at_zero = [x for m, p, sl in zip(models, params, slices)
               for x in m.log_amounts(t0, p, [0.0] * (sl.stop - sl.start))[0]]
    # the rows of a are orthonormal, so a y is the minimum-norm solution of a^T lam = y
    y = [at_zero[k] - math.log(max(n0[k], floor)) for k in free]
    lam = [sum(map(mul, ak, y)) for ak in a]
    beta = 1.0 / t0
    here = at(lam, beta)
    failure = partial(str, f"iteration budget {max_iter} exhausted")
    for it in range(1, max_iter + 1):
        g, grad, n, comps, t, dlog = here
        w = [*a, [t * dlog[k] for k in free]]
        hess = [[sum(n[k] * x * y for k, x, y in zip(free, wi, wj)) for wj in w] for wi in w]
        hess[-1][-1] += t * t * sum(
            _fd_slopes(lambda x, m=m, p=p, c=c: solve_energy_at_temperature(m, x[0], p, c),
                       [t], step=H_REL * t)[0]
            for m, p, c in zip(models, params, comps))
        # lam and beta differ in units by powers of T: the system is solved
        # with its diagonal scaled to one, so no direction of either is cut off
        d = [1.0 / math.sqrt(h[i]) if h[i] > 0.0 else 1.0 for i, h in enumerate(hess)]
        y = _lstsq([[di * x * dj for x, dj in zip(h, d)] for h, di in zip(hess, d)],
                   [-di * x for di, x in zip(d, grad)])
        step = [di * x for di, x in zip(d, y)]
        decrease = -sum(map(mul, grad, step))
        if decrease <= 64.0 * _FLOAT_EPS * abs(g):
            here = at(*moved(1.0))
            failure = partial("element-potential dual converged in {} steps".format, it)
            break
        alpha = 1.0
        for _ in range(60):
            try:
                trial = at(*moved(alpha))
            except (DomainError, RangeError):
                trial = None
            if trial is not None and trial[0] <= g - 1e-4 * alpha * decrease:
                break
            alpha *= 0.5
        else:
            failure = partial("no descent step after {} steps".format, it)
            break
        (lam, beta), here = moved(alpha), trial
    n = here[2]
    return _point(prob, _moved_by(prob, n), n), it, failure


def equilibrium_residual(sol: EquilibriumSolution, prob: EquilibriumProblem) -> float:
    """Stationarity residual max_l |sum_k nu_kl mu_k| / T with finite-difference
    chemical potentials mu_k = -T dS/dn_k.  Vacuously zero without reactions."""
    if prob.n_reactions == 0:
        return 0.0
    t_eq = sol.temperature
    mu = [-t_eq * x for model, st in zip(prob.models, sol.states)
          for x in MatterModel.ds_dn(model, st.energy, st.params, st.comp)]
    return _max_abs([sum(map(mul, col, mu)) for col in prob.network.columns]) / t_eq


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
                               d_s, [0.0] * len(st.comp), d_beta)


def pressure_of(model: MatterModel, st: SystemState) -> float:
    """Pressure p = T dS/dV at fixed (E, n), which is -dE/dV at fixed (S, n).
    Raises DomainError where it is not finite."""
    return _pressure(model, st, None)


def _pressure(model: MatterModel, st: SystemState, temperature: float | None) -> float:
    """``pressure_of``, reading the temperature of a checked state when given."""
    slope = model.ds_dv(st.energy, st.params, st.comp)
    t = temperature_of(model, st) if temperature is None else temperature
    p = t * slope
    if not math.isfinite(p):
        raise DomainError(f"pressure {p:.6g} at volume {st.params.volume:.6g} is not finite")
    return p
