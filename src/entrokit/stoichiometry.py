"""Composition vectors, reaction networks and the linear algebra that connects them.

Amounts are real-valued throughout: region counting over ideal surface patches
gives continuous spectra, so no integer-only mode is offered.  Amounts, a
network's coefficients and reaction coordinates are tuples of floats, and
all of their linear algebra, the rows a network conserves included, runs
through one plain-float Jacobi SVD (``_svd``).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from functools import cached_property
from operator import mul

from .errors import FrozenRecord, NegativeAmount

#: Entries more negative than this are an error; entries in (-TOL_NEG, 0) are
#: rounding noise and get clamped to zero.
TOL_NEG = 1e-12

#: Absolute residual (inf-norm) below which a composition change counts as
#: realizable by the network.  Amounts are treated as O(1) numbers.
TOL_COMPAT = 1e-9

#: Relative singular-value cutoff for rank detection in least-squares solves.
RCOND = 1e-10


def _svd(rows) -> tuple[list, list, list]:
    """The thin SVD of the m x n matrix ``rows``: lists s, u and v of the
    min(m, n) singular values and their left (length m, zero for s = 0) and
    right (length n) vectors.  One-sided Jacobi (M. R. Hestenes, J. SIAM 6,
    1958): plane rotations of the columns, accumulated in v, until all are
    orthogonal to rounding, a wide matrix through its transpose.  Entries are
    first divided by a power of two near the largest, exactly, which keeps
    the squared norms finite; a non-finite entry gives non-finite values,
    never an exception."""
    m, n = len(rows), len(rows[0]) if rows else 0
    if m < n:
        s, u, v = _svd(list(zip(*rows)))
        return s, v, u
    peak = max((abs(x) for row in rows for x in row), default=0.0)
    scale = math.ldexp(0.5, math.frexp(peak)[1]) if peak > 0.0 else 1.0
    cols = [[x / scale for x in col] for col in zip(*rows)]
    v = [[float(i == k) for i in range(n)] for k in range(n)]
    for _ in range(40):  # sweeps; small matrices converge in a handful
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                a, b = cols[i], cols[j]
                gamma = sum(map(mul, a, b))
                alpha, beta = sum(map(mul, a, a)), sum(map(mul, b, b))
                if not abs(gamma) > sys.float_info.epsilon * math.sqrt(alpha * beta):
                    continue  # orthogonal to rounding, or a non-finite column
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sn = c * t
                rotated = True
                for pair in (cols, v):
                    x, y = pair[i], pair[j]
                    pair[i] = [c * p - sn * q for p, q in zip(x, y)]
                    pair[j] = [sn * p + c * q for p, q in zip(x, y)]
        if not rotated:
            break
    norms = [math.sqrt(sum(map(mul, col, col))) for col in cols]
    u = [[x / norm for x in col] if norm > 0.0 else [0.0] * m
         for col, norm in zip(cols, norms)]
    return [norm * scale for norm in norms], u, v


def _pinv(rows, rcond: float = RCOND) -> list:
    """Pseudo-inverse of the m x n matrix ``rows``, n rows of m floats, with
    numpy's cutoff: singular values at most ``rcond`` times the largest count
    as zero."""
    s, u, v = _svd(rows)
    cutoff = rcond * max(s, default=0.0)
    kept = [(sk, uk, vk) for sk, uk, vk in zip(s, u, v) if sk > cutoff]
    return [[sum((vk[i] * uk[j] / sk for sk, uk, vk in kept), 0.0) for j in range(len(rows))]
            for i in range(len(rows[0]) if rows else 0)]


def _lstsq(rows, b) -> list:
    """The minimum-norm least-squares solution x of ``rows`` x = ``b``: the
    pseudo-inverse applied to ``b``."""
    return [sum(map(mul, p, b)) for p in _pinv(rows)]


def _float_vector(values, what: str) -> tuple:
    """``values``, a sequence, an array (read through its ``tolist``) or a
    scalar, a numeric string included, as a tuple of Python floats;
    ValueError unless it is a vector."""
    if not isinstance(values, (tuple, list)):
        values = values.tolist() if hasattr(values, "tolist") else values
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            values = (values,)  # a scalar: a set or a mapping fails as one
    try:
        return tuple(map(float, values))
    except TypeError:  # a nested sequence
        raise ValueError(f"{what} must be a vector") from None


class Composition(FrozenRecord):
    """Amounts of each constituent, one entry per single-constituent region,
    as a tuple of floats; compositions compare and hash by their amounts.

    ``total`` (the summed amount) is computed once, at construction; it is
    positive exactly when some amount is.
    """

    __slots__ = ("amounts", "total")
    _fields = ("amounts",)

    def __init__(self, amounts):
        n = _float_vector(amounts, "composition")
        if not min(n, default=0.0) >= 0.0:  # a negative entry, or a leading NaN that hides one
            for k, x in enumerate(n):
                if x < -TOL_NEG:
                    raise NegativeAmount(k, x)
            n = tuple(0.0 if x < 0.0 else x for x in n)
        object.__setattr__(self, "amounts", n)
        object.__setattr__(self, "total", sum(n, 0.0))

    def __len__(self) -> int:
        return len(self.amounts)


class ReactionNetwork(FrozenRecord):
    """Stoichiometric coefficients, a tuple of rows of floats: one row per
    constituent, one column per allowed reaction mechanism.

    ``rows[k][l]`` is the coefficient of constituent ``k`` in reaction ``l``
    (negative for consumed, positive for produced).  Networks compare and
    hash by their coefficients.
    """

    __slots__ = ("rows", "__dict__")  # the dict holds the cached properties

    def __init__(self, rows):
        rows = rows.tolist() if hasattr(rows, "tolist") else rows
        try:
            rows = tuple(tuple(map(float, row)) for row in rows)
        except TypeError:  # not a sequence of rows of numbers
            rows = ()
        if len(set(map(len, rows))) != 1 or not all(math.isfinite(x) for r in rows for x in r):
            raise ValueError("stoichiometric coefficients must form a matrix of finite numbers")
        for col, column in enumerate(zip(*rows)):
            if not any(column):
                raise ValueError(f"reaction {col} changes no amounts (all-zero column)")
        object.__setattr__(self, "rows", rows)

    @property
    def n_constituents(self) -> int:
        return len(self.rows)

    @property
    def n_reactions(self) -> int:
        return len(self.rows[0])

    @cached_property
    def columns(self) -> tuple:
        """The coefficients of each reaction, a tuple of tuples of floats."""
        return tuple(zip(*self.rows))

    @property
    def _rank_tol(self) -> float:
        return 1e-10 * max((abs(x) for row in self.rows for x in row), default=0.0)

    def _rank(self, cols) -> int:
        """Rank of the reactions ``cols``, at the cutoff of ``conserved``."""
        tol = self._rank_tol
        return sum(x > tol for x in _svd([[row[j] for j in cols] for row in self.rows])[0])

    @cached_property
    def rank(self) -> int:
        """Number of independent reactions, at a cutoff relative to the largest
        coefficient: the constituents less the rows ``conserved`` keeps, from
        the same decomposition; computed once per network."""
        return self.n_constituents - len(self.conserved)

    @cached_property
    def conserved(self) -> tuple:
        """Orthonormal rows spanning the combinations a of constituents that no
        reaction changes (a . column = 0 for every column), a tuple of tuples of
        floats: the right singular vectors of the transposed coefficients, padded
        with zero rows to square, whose singular values are at most 1e-10 times
        the largest coefficient; computed once per network."""
        r = self.n_constituents
        s, _, v = _svd([*self.columns, *[[0.0] * r] * (r - self.n_reactions)])
        return tuple(tuple(vk) for sk, vk in zip(s, v) if sk <= self._rank_tol)

    @cached_property
    def independent_columns(self) -> tuple[int, ...]:
        """A maximal set of linearly independent reactions at the cutoff of
        ``rank``, first come first kept; computed once per network."""
        cols: list[int] = []
        for j in range(self.n_reactions):
            if self._rank(cols + [j]) > len(cols):
                cols.append(j)
        return tuple(cols)


class ReactionCoordinates(FrozenRecord):
    """Extent of each reaction mechanism, a tuple of floats; compared and
    hashed by value."""

    __slots__ = ("epsilon",)

    def __init__(self, epsilon):
        object.__setattr__(self, "epsilon", _float_vector(epsilon, "reaction coordinates"))

    def __len__(self) -> int:
        return len(self.epsilon)


class ElementalSetReport(FrozenRecord):
    """Outcome of checking a candidate elemental-species set.

    ``producible`` pairs each outside constituent the set can form with the
    reaction coordinates that form one unit of it, a tuple of (index,
    ReactionCoordinates) pairs in constituent order, so the report is a
    value like the other records.
    ``violating_reactions`` lists reaction columns supported entirely on the
    set, each a witness against independence.
    """

    __slots__ = ("species", "complete", "independent", "unreachable", "producible",
                 "violating_reactions")

    def __init__(self, species: tuple[int, ...], complete: bool, independent: bool,
                 unreachable: tuple[int, ...] = (), producible: tuple = (),
                 violating_reactions: tuple[int, ...] = ()):
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "independent", independent)
        object.__setattr__(self, "unreachable", unreachable)
        object.__setattr__(self, "producible", tuple(producible))
        object.__setattr__(self, "violating_reactions", violating_reactions)

    @property
    def valid(self) -> bool:
        return self.complete and self.independent


def validate_elemental_set(
    species_indices, net: ReactionNetwork
) -> ElementalSetReport:
    """Check completeness and independence of a candidate elemental-species set.

    Completeness: every constituent outside the set can be formed through the
    network starting from set members only, i.e. for each outside constituent
    k there are reaction coordinates whose net change is +1 at k, zero at the
    other outside constituents, and arbitrary on the set.
    Independence: no reaction column is supported entirely on the set.
    The coordinates forming outside constituent k are the minimum-norm
    least-squares solution for that target, column k of the pseudo-inverse
    of the outside rows.
    """
    r = net.n_constituents
    species = tuple(sorted(set(int(i) for i in species_indices)))
    for i in species:
        if i < 0 or i >= r:
            raise IndexError(f"species index {i} outside range 0..{r - 1}")

    outside = [k for k in range(r) if k not in species]
    producible: list[tuple[int, ReactionCoordinates]] = []
    unreachable: list[int] = []
    rows_outside = [net.rows[k] for k in outside]
    pinv = _pinv(rows_outside)
    for j, k in enumerate(outside):
        eps = [p[j] for p in pinv]
        if all(abs(sum(map(mul, row, eps)) - (i == j)) <= TOL_COMPAT
               for i, row in enumerate(rows_outside)):
            producible.append((k, ReactionCoordinates(eps)))
        else:
            unreachable.append(k)

    violating = tuple(col for col, column in enumerate(net.columns)
                      if not any(column[k] for k in outside))

    return ElementalSetReport(
        species=species,
        complete=not unreachable,
        independent=not violating,
        unreachable=tuple(unreachable),
        producible=tuple(producible),
        violating_reactions=violating,
    )
