"""Composition vectors, reaction networks and the linear algebra that connects them.

Amounts are real-valued throughout: region counting over ideal surface patches
gives continuous spectra, so no integer-only mode is offered.  Amounts and
a network's coefficients are tuples of floats; only linear algebra imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import NegativeAmount

if TYPE_CHECKING:
    import numpy as np

#: Entries more negative than this are an error; entries in (-TOL_NEG, 0) are
#: rounding noise and get clamped to zero.
TOL_NEG = 1e-12

#: Absolute residual (inf-norm) below which a composition change counts as
#: realizable by the network.  Amounts are treated as O(1) numbers.
TOL_COMPAT = 1e-9

#: Relative singular-value cutoff for rank detection in least-squares solves.
RCOND = 1e-10


def _frozen_array(values, ndmin: int) -> np.ndarray:
    import numpy as np

    arr = np.array(values, dtype=float, ndmin=ndmin)
    arr.flags.writeable = False
    return arr


def _float_vector(values, what: str) -> tuple:
    """``values``, a sequence or a scalar, as a tuple of Python floats;
    ValueError unless it is a vector."""
    if not isinstance(values, (tuple, list)):
        import numpy as np
        arr = np.array(values, dtype=float, ndmin=1)
        if arr.ndim != 1:
            raise ValueError(f"{what} must be a vector")
        values = arr.tolist()
    try:
        return tuple(map(float, values))
    except TypeError:  # a nested sequence
        raise ValueError(f"{what} must be a vector") from None


@dataclass(frozen=True)
class Composition:
    """Amounts of each constituent, one entry per single-constituent region,
    as a tuple of floats; compositions compare and hash by their amounts.

    ``total`` (the summed amount) is computed once, at construction; it is
    positive exactly when some amount is.
    """

    amounts: tuple
    total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _float_vector(self.amounts, "composition")
        if not min(n, default=0.0) >= 0.0:  # a negative entry, or a leading NaN that hides one
            for k, x in enumerate(n):
                if x < -TOL_NEG:
                    raise NegativeAmount(k, x)
            n = tuple(0.0 if x < 0.0 else x for x in n)
        object.__setattr__(self, "amounts", n)
        object.__setattr__(self, "total", sum(n, 0.0))

    def __len__(self) -> int:
        return len(self.amounts)


@dataclass(frozen=True)
class ReactionNetwork:
    """Stoichiometric coefficients, a tuple of rows of floats: one row per
    constituent, one column per allowed reaction mechanism.

    ``rows[k][l]`` is the coefficient of constituent ``k`` in reaction ``l``
    (negative for consumed, positive for produced).  Networks compare and
    hash by their coefficients; ``stoich`` is them as a read-only array.
    """

    rows: tuple

    def __post_init__(self):
        rows = self.rows.tolist() if hasattr(self.rows, "tolist") else self.rows
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

    @cached_property
    def stoich(self) -> np.ndarray:
        """The coefficients as a read-only array; built on first use."""
        return _frozen_array(self.rows, ndmin=2)

    @property
    def n_constituents(self) -> int:
        return len(self.rows)

    @property
    def n_reactions(self) -> int:
        return len(self.rows[0])

    @property
    def _rank_tol(self) -> float:
        return 1e-10 * max([1.0] + [abs(x) for row in self.rows for x in row])

    @cached_property
    def rank(self) -> int:
        """Number of independent reactions, at a cutoff relative to the largest
        coefficient; computed once per network."""
        from numpy.linalg import matrix_rank

        return int(matrix_rank(self.stoich, tol=self._rank_tol))

    @cached_property
    def conserved(self) -> np.ndarray:
        """Orthonormal rows spanning the combinations a of constituents that no
        reaction changes (a . stoich = 0), at the cutoff of ``rank``; computed
        once per network."""
        from numpy.linalg import svd

        return _frozen_array(svd(self.stoich)[0][:, self.rank:].T, ndmin=2)

    @cached_property
    def independent_columns(self) -> tuple[int, ...]:
        """A maximal set of linearly independent reactions at the cutoff of
        ``rank``, first come first kept; computed once per network."""
        from numpy.linalg import matrix_rank

        cols: list[int] = []
        for j in range(self.n_reactions):
            if matrix_rank(self.stoich[:, cols + [j]], tol=self._rank_tol) > len(cols):
                cols.append(j)
        return tuple(cols)


@dataclass(frozen=True, eq=False)
class ReactionCoordinates:
    """Extent of each reaction mechanism; compared and hashed by value."""

    epsilon: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _frozen_array(self.epsilon, ndmin=1))

    def __eq__(self, other):
        same = type(other) is type(self)
        return self.epsilon.tolist() == other.epsilon.tolist() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.epsilon.tolist()))

    def __len__(self) -> int:
        return self.epsilon.shape[0]


@dataclass(frozen=True)
class ElementalSetReport:
    """Outcome of checking a candidate elemental-species set.

    ``producible`` maps each outside constituent to the reaction coordinates
    that form one unit of it from the set (absent if not producible).
    ``violating_reactions`` lists reaction columns supported entirely on the
    set, each a witness against independence.
    """

    species: tuple[int, ...]
    complete: bool
    independent: bool
    unreachable: tuple[int, ...] = ()
    producible: dict = field(default_factory=dict)
    violating_reactions: tuple[int, ...] = ()

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
    """
    import numpy as np

    r = net.n_constituents
    species = tuple(sorted(set(int(i) for i in species_indices)))
    for i in species:
        if i < 0 or i >= r:
            raise IndexError(f"species index {i} outside range 0..{r - 1}")
    in_set = np.zeros(r, dtype=bool)
    in_set[list(species)] = True

    outside = [k for k in range(r) if not in_set[k]]
    producible: dict[int, ReactionCoordinates] = {}
    unreachable: list[int] = []
    rows_outside = net.stoich[~in_set, :]
    for k in outside:
        target = np.zeros(len(outside))
        target[outside.index(k)] = 1.0
        eps, *_ = np.linalg.lstsq(rows_outside, target, rcond=RCOND)
        if np.max(np.abs(rows_outside @ eps - target)) <= TOL_COMPAT:
            producible[k] = ReactionCoordinates(eps)
        else:
            unreachable.append(k)

    violating = tuple(
        col
        for col in range(net.n_reactions)
        if not np.any(net.stoich[~in_set, col])
    )

    return ElementalSetReport(
        species=species,
        complete=not unreachable,
        independent=not violating,
        unreachable=tuple(unreachable),
        producible=producible,
        violating_reactions=violating,
    )
