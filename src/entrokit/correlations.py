"""Discrete joint probability tables and decorrelation-entropy bookkeeping.

A classical realization of correlated composite states: the composite state
is a joint table over subsystem outcomes, the uncorrelated counterpart is the
product of its marginals, and the entropy gained by decorrelating is the
mutual information of the table (natural log; 0 ln 0 = 0).  Tables,
marginals and energies are tuples of floats, and every kernel is a plain sum.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .errors import FrozenRecord, ParseError
from .stoichiometry import _float_vector

PROB_TOL = 1e-12


def _shannon(p) -> float:
    """Shannon entropy (0 ln 0 = 0) of a distribution; +0.0, not -0.0, for a
    certain one."""
    return 0.0 - sum(x * math.log(x) for x in p if x > 0.0)


def _is_distribution(cells: list) -> bool:
    """Whether cells are finite, non-negative and sum to 1 within PROB_TOL."""
    return all(0.0 <= x < math.inf for x in cells) and abs(sum(cells) - 1.0) <= PROB_TOL


class JointState(FrozenRecord):
    """Joint probability table, a tuple of rows, with per-outcome energies
    for each subsystem, all as floats; compared and hashed by value."""

    __slots__ = ("table", "energies_a", "energies_b")

    def __init__(self, table, energies_a, energies_b):
        ea = _float_vector(energies_a, "energies of A")
        eb = _float_vector(energies_b, "energies of B")
        table = tuple(_float_vector(row, "a table row") for row in table)
        for i, row in enumerate(table, start=1):
            if len(row) != len(eb):
                raise ValueError(f"table row {i} has {len(row)} entries, "
                                 f"energies of B {len(eb)}")
        if len(table) != len(ea):
            raise ValueError(f"table has {len(table)} rows, energies of A {len(ea)}")
        if not all(map(math.isfinite, ea + eb)):
            raise ValueError("energies must be finite")
        cells = [x for row in table for x in row]
        if not _is_distribution(cells):
            raise ValueError("probabilities must be finite, non-negative and sum to 1, "
                             f"got sum {sum(cells):.15g}")
        self._set_table(self, table)
        self._set_energies_a(self, ea)
        self._set_energies_b(self, eb)


class MarginalPair(NamedTuple):
    """Subsystem outcome distributions obtained from a joint table."""

    p_a: tuple
    p_b: tuple


def _marginals(table) -> MarginalPair:
    """Row and column sums of a table, a sequence of rows."""
    return MarginalPair(tuple(map(sum, table)), tuple(map(sum, zip(*table))))


def _product(m: MarginalPair) -> tuple:
    """Outer product of two marginals, a tuple of rows."""
    return tuple(tuple(a * b for b in m.p_b) for a in m.p_a)


def _entropies(cells, m: MarginalPair) -> tuple[float, float, float, float]:
    """H(p), H(p_a), H(p_b) and sigma of a table's cells p with its marginals."""
    h, h_a, h_b = _shannon(cells), _shannon(m.p_a), _shannon(m.p_b)
    return h, h_a, h_b, h_a + h_b - h


def _energy(m: MarginalPair, energies_a, energies_b) -> float:
    """Mean energy of a composite with marginals ``m``."""
    return sum(map(mul, m.p_a, energies_a)) + sum(map(mul, m.p_b, energies_b))


def marginals(joint: JointState) -> MarginalPair:
    """Row and column sums of the joint table."""
    return _marginals(joint.table)


def product_state(joint: JointState) -> JointState:
    """The uncorrelated counterpart: outer product of the marginals."""
    return JointState(_product(marginals(joint)), joint.energies_a, joint.energies_b)


def decorrelation_entropy(joint: JointState) -> float:
    """Entropy gained by replacing the joint with the product of its marginals.

    sigma = H(p_a) + H(p_b) - H(p); non-negative, zero exactly when the table
    already factorizes.
    """
    return joint_entropies(joint)[3]


def joint_entropies(joint: JointState) -> tuple[float, float, float, float]:
    """H(p), H(p_a), H(p_b) and sigma = H(p_a) + H(p_b) - H(p) of one joint."""
    return _entropies([x for row in joint.table for x in row], marginals(joint))


def joint_energy(joint: JointState) -> float:
    """Mean energy of the composite; depends only on the marginals."""
    return _energy(marginals(joint), joint.energies_a, joint.energies_b)


def load_joint_csv(path) -> JointState:
    """Read a joint table from CSV: row 1 the energies of A, row 2 the
    energies of B, then the m-by-k probability table.  ParseError, with the
    line, for a cell that is not a number, a missing row or an invalid table."""
    rows, lines = [], []
    # undecodable bytes become cells that are not numbers
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise ParseError(f"joint CSV: not a number in '{line}'", lineno) from None
            lines.append(lineno)
    if len(rows) < 3:
        raise ParseError("joint CSV needs two energy rows and a table", lines[-1] if lines else 0)
    try:
        return JointState(rows[2:], rows[0], rows[1])
    except ValueError as exc:  # at the first row not as long as B's energies, else the first
        ragged = next((i for i, row in enumerate(rows[2:]) if len(row) != len(rows[1])), 0)
        raise ParseError(f"joint CSV: {exc}", lines[2 + ragged]) from None
