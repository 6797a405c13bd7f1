"""One-dimensional root finding behind every inversion in entrokit.

Each operational definition ends in a monotone one-dimensional inversion:
the energy at an entropy or a temperature, the volume on an isentrope or at
a pressure, the temperature of an energy split, the extent of a reaction at
its entropy maximum.  Each is a root of a function that increases with a
distance d > 0 from an origin (the ground bound, zero volume, zero
temperature, the exhausted end of the extent interval), and
``increasing_root`` finds them all: it brackets the root by 8-fold steps of
d and refines d to a relative tolerance with ``brentq``, Brent's method
(R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973).
Both stop early at a value |f| <= ``ftol`` when the caller gives one: the
reaction affinity's, whose refinement ends at rounding level.
Failures raise entrokit errors: RangeError when no sign change is found,
NonConvergence when the iteration budget runs out.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonConvergence, RangeError

#: Smallest relative tolerance ``brentq`` accepts: four machine epsilons.
RTOL_MIN = 4.0 * 2.220446049250313e-16

#: Values of f that ``increasing_root`` tries after the first before giving up.
MAX_EXPANSIONS = 200


def _nan_error(x: float) -> DomainError:
    return DomainError(f"function value at x={x!r} is NaN; root search cannot continue")


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = RTOL_MIN,
           maxiter: int = 100, fa: float | None = None,
           fb: float | None = None, ftol: float = 0.0) -> tuple[float, float]:
    """Root of f between a and b by Brent's method; returns (root, f(root)).

    A step-for-step port of the classic C ``brentq`` routine: the same
    arguments, iterates and evaluations, converging once the bracket is
    narrower than ``xtol + rtol * |x|``, or at an iterate with |f| <= ``ftol``
    (by default only at a zero, as in C).  ``fa`` and ``fb`` are f(a) and
    f(b) when the caller has them already; they are not evaluated again.

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
    if abs(fpre) <= ftol:
        return xpre, fpre
    if abs(fcur) <= ftol:
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
        if abs(fcur) <= ftol or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # an infinite or NaN step in C, which bisects
                stry = math.inf
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


def increasing_root(f, d0: float, limit: float = math.inf,
                    ftol: float = 0.0) -> tuple[float, float]:
    """Root of f, which increases with a distance d > 0 from an origin that
    f adds itself; returns (d, f(d)).

    From d0 (at most ``limit``), d grows 8-fold toward ``limit`` while
    f(d) < 0 and shrinks 8-fold toward 0 while f(d) > 0; Brent's method then
    refines d between the last two values to a relative 1e-15.  Any value
    with |f(d)| <= ``ftol`` ends the search at its d.
    Raises RangeError when d reaches ``limit``, or MAX_EXPANSIONS values of f
    pass after the first, without a sign change.
    """
    d, last = min(d0, limit), None
    for _ in range(1 + MAX_EXPANSIONS):
        f_d = f(d)
        if f_d != f_d:
            raise _nan_error(d)
        if abs(f_d) <= ftol:
            return d, f_d
        if last is not None and (f_d < 0.0) != (last[1] < 0.0):
            (lo, f_lo), (hi, f_hi) = sorted([last, (d, f_d)])
            return brentq(f, lo, hi, xtol=1e-15 * hi, rtol=1e-15, fa=f_lo, fb=f_hi,
                          ftol=ftol)
        if f_d < 0.0 and d == limit:
            raise RangeError(f"root bracket reached its limit {limit:.6g} "
                             "without a sign change")
        last = d, f_d
        d = min(8.0 * d, limit) if f_d < 0.0 else 0.125 * d
    raise RangeError(f"no sign change after {MAX_EXPANSIONS} bracket expansions")
