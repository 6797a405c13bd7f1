"""One-dimensional root finding behind every inversion in entrokit.

Each operational definition ends in a monotone one-dimensional inversion:
the energy at an entropy or a temperature, the volume on an isentrope or at
a pressure, the temperature of an energy split.  All of them bracket the root
with ``expand_bracket`` and refine it with ``brentq``, Brent's method
(R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973).
Failures raise entrokit errors: RangeError when no sign change is found,
NonConvergence when the iteration budget runs out.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergence, RangeError

#: Smallest relative tolerance ``brentq`` accepts: four machine epsilons.
RTOL_MIN = 4.0 * 2.220446049250313e-16

#: Values of f that ``expand_bracket`` tries before giving up.
MAX_EXPANSIONS = 200

#: Bound on |x| for searches in a log coordinate, so that exp(x) stays finite.
LOG_LIMIT = 700.0


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


def decreasing_root(f, x0: float, xtol: float, rtol: float = RTOL_MIN) -> float:
    """Root of a decreasing f of a log coordinate, searched outward from x0.

    Strides of 0.5, 1, 2, ... go uphill in x while f > 0 and downhill while
    f < 0, within |x| <= LOG_LIMIT; Brent's method then refines the root
    between x0 and the first stride past it.
    """
    f0 = f(x0)
    if f0 == 0.0:
        return x0
    stride = 0.5 if f0 > 0.0 else -0.5
    x, fx = expand_bracket(f, x0 + stride, f0, x0, factor=2.0,
                           limit=math.copysign(LOG_LIMIT, stride))
    return brentq(f, x0, x, xtol, rtol, fa=f0, fb=fx)[0]
