"""One-dimensional root finding behind every inversion in entrokit.

Each operational definition ends in a monotone one-dimensional inversion:
the energy at an entropy or a temperature, the volume on an isentrope or at
a pressure, the temperature of an energy split.  Each is a root of a function
that increases with a distance d > 0 from an origin (the ground bound, zero
volume, zero temperature), and ``increasing_root`` finds them all: it
brackets the root by 8-fold steps of d with ``expand_bracket`` and refines d
to a relative tolerance with ``brentq``, Brent's method (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973).  Only the reaction
affinity of the equilibrium solver, which lives on a finite interval, builds
its own bracket from the same two pieces.  Failures raise entrokit errors:
RangeError when no sign change is found, NonConvergence when the iteration
budget runs out.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergence, RangeError

#: Smallest relative tolerance ``brentq`` accepts: four machine epsilons.
RTOL_MIN = 4.0 * 2.220446049250313e-16

#: Values of f that ``expand_bracket`` tries before giving up.
MAX_EXPANSIONS = 200


def _nan_error(x: float) -> DomainError:
    return DomainError(f"function value at x={x!r} is NaN; root search cannot continue")


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = RTOL_MIN,
           maxiter: int = 100, fa: float | None = None,
           fb: float | None = None) -> tuple[float, float]:
    """Root of f between a and b by Brent's method; returns (root, f(root)).

    A step-for-step port of the classic C ``brentq`` routine: the same
    arguments, iterates and evaluations, converging once the bracket is
    narrower than ``xtol + rtol * |x|``.  ``fa`` and ``fb`` are f(a) and f(b)
    when the caller has them already; they are not evaluated again.

    Raises RangeError when f(a) and f(b) have the same sign, NonConvergence
    (last iterate as ``best``) after ``maxiter`` iterations, and DomainError
    when f returns NaN.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    xpre, xcur = float(a), float(b)
    fpre = f(xpre) if fa is None else fa
    if fpre != fpre:
        raise _nan_error(xpre)
    fcur = f(xcur) if fb is None else fb
    if fcur != fcur:
        raise _nan_error(xcur)
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise RangeError(f"no sign change between {xpre:.6g} and {xcur:.6g}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_error(xcur)
    raise NonConvergence(f"brentq failed to converge after {maxiter} iterations",
                         best=xcur)


def expand_bracket(f, x: float, f_ref: float, origin: float, factor: float = 8.0,
                   limit: float = math.inf) -> tuple[float, float]:
    """Move x geometrically until f(x) leaves the sign of ``f_ref``.

    ``f_ref`` is a nonzero value of f on the near side of the root.  While
    f(x) keeps its sign, x becomes ``origin + factor * (x - origin)``,
    clipped at ``limit``.  Returns (x, f(x)) with f(x) zero or of the
    opposite sign; raises RangeError when x reaches ``limit``, or
    MAX_EXPANSIONS values of f pass, without a sign change.
    """
    negative = f_ref < 0.0
    for _ in range(MAX_EXPANSIONS):
        fx = f(x)
        if fx != fx:
            raise _nan_error(x)
        if fx == 0.0 or (fx < 0.0) != negative:
            return x, fx
        if x == limit:
            raise RangeError(f"root bracket reached its limit {limit:.6g} "
                             "without a sign change")
        moved = origin + factor * (x - origin)
        x = min(moved, limit) if limit > x else max(moved, limit)
    raise RangeError(f"no sign change after {MAX_EXPANSIONS} bracket expansions")


def increasing_root(f, d0: float, limit: float = math.inf) -> tuple[float, float]:
    """Root of f, which increases with a distance d > 0 from an origin that
    f adds itself; returns (d, f(d)).

    From d0 (at most ``limit``), d grows 8-fold toward ``limit`` while
    f(d) < 0 and shrinks 8-fold toward 0 while f(d) > 0; Brent's method then
    refines d between the last two values to a relative 1e-15.
    Raises RangeError when d reaches ``limit``, or MAX_EXPANSIONS values of f
    pass, without a sign change.
    """
    d = min(d0, limit)
    f0 = f(d)
    if f0 != f0:
        raise _nan_error(d)
    if f0 == 0.0:
        return d, f0
    seen = [(d, f0)]  # (d, f(d)) in order of evaluation

    def g(x: float) -> float:
        seen.append((x, f(x)))
        return seen[-1][1]

    factor = 8.0 if f0 < 0.0 else 0.125
    expand_bracket(g, min(factor * d, limit), f0, 0.0, factor=factor, limit=limit)
    (lo, f_lo), (hi, f_hi) = sorted(seen[-2:])
    return brentq(f, lo, hi, xtol=1e-15 * hi, rtol=1e-15, fa=f_lo, fb=f_hi)
