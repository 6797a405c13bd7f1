"""Discrete joint probability tables and decorrelation-entropy bookkeeping.

A classical realization of correlated composite states: the composite state
is a joint table over subsystem outcomes, the uncorrelated counterpart is the
product of its marginals, and the entropy gained by decorrelating is the
mutual information of the table (natural log; 0 ln 0 = 0).  Entropies and
mean energies come from batch kernels, one numpy reduction over a stack of
equal-shape tables (n, m, k) each; a single JointState is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParseError
from .stoichiometry import _ComparedByValue, _frozen_array

PROB_TOL = 1e-12


def _shannon(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (0 ln 0 = 0) of each distribution along the last axis."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def valid_tables(tables: np.ndarray) -> np.ndarray:
    """Which tables of a stack (n, m, k) are finite, non-negative and sum to 1
    within PROB_TOL: the tables a JointState accepts."""
    flat = tables.reshape(tables.shape[0], -1)
    return ((flat >= 0.0).all(axis=1) & np.isfinite(flat).all(axis=1)
            & (np.abs(flat.sum(axis=1) - 1.0) <= PROB_TOL))


def table_entropies(tables: np.ndarray) -> tuple:
    """H(p), H(p_a), H(p_b) and sigma = H(p_a) + H(p_b) - H(p) of each table
    of a stack (n, m, k), each of shape (n,)."""
    h = _shannon(tables.reshape(tables.shape[0], -1))
    h_a = _shannon(tables.sum(axis=2))
    h_b = _shannon(tables.sum(axis=1))
    return h, h_a, h_b, h_a + h_b - h


def table_energies(tables: np.ndarray, e_a: np.ndarray, e_b: np.ndarray) -> np.ndarray:
    """Mean energy of each table of a stack (n, m, k) with per-outcome energies
    (n, m) and (n, k); depends only on the marginals."""
    p_a, p_b = tables.sum(axis=2)[:, None, :], tables.sum(axis=1)[:, None, :]
    return (p_a @ e_a[:, :, None] + p_b @ e_b[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class JointState(_ComparedByValue):
    """Joint probability table with per-outcome energies for each subsystem;
    compared and hashed by value."""

    table: np.ndarray
    energies_a: np.ndarray
    energies_b: np.ndarray

    def __post_init__(self):
        table = np.atleast_2d(np.array(self.table, dtype=float))
        ea = np.atleast_1d(np.array(self.energies_a, dtype=float))
        eb = np.atleast_1d(np.array(self.energies_b, dtype=float))
        if table.shape != (ea.shape[0], eb.shape[0]):
            raise ValueError(
                f"table shape {table.shape} does not match energies "
                f"({ea.shape[0]}, {eb.shape[0]})"
            )
        if not (np.isfinite(ea).all() and np.isfinite(eb).all()):
            raise ValueError("energies must be finite")
        if not valid_tables(table[None])[0]:
            raise ValueError("probabilities must be finite, non-negative and sum to 1, "
                             f"got sum {table.sum():.15g}")
        object.__setattr__(self, "table", _frozen_array(table))
        object.__setattr__(self, "energies_a", _frozen_array(ea))
        object.__setattr__(self, "energies_b", _frozen_array(eb))


class MarginalPair(NamedTuple):
    """Subsystem outcome distributions obtained from a joint table."""

    p_a: np.ndarray
    p_b: np.ndarray


def marginals(joint: JointState) -> MarginalPair:
    """Row and column sums of the joint table."""
    return MarginalPair(joint.table.sum(axis=1), joint.table.sum(axis=0))


def product_state(joint: JointState) -> JointState:
    """The uncorrelated counterpart: outer product of the marginals."""
    m = marginals(joint)
    return JointState(np.outer(m.p_a, m.p_b), joint.energies_a, joint.energies_b)


def decorrelation_entropy(joint: JointState) -> float:
    """Entropy gained by replacing the joint with the product of its marginals.

    sigma = H(p_a) + H(p_b) - H(p); non-negative, zero exactly when the table
    already factorizes.
    """
    return joint_entropies(joint)[3]


def joint_entropies(joint: JointState) -> tuple[float, float, float, float]:
    """H(p), H(p_a), H(p_b) and sigma of one joint, a stack of one."""
    return tuple(float(x[0]) for x in table_entropies(joint.table[None]))


def joint_energy(joint: JointState) -> float:
    """Mean energy of the composite; depends only on the marginals."""
    return float(table_energies(joint.table[None], joint.energies_a[None],
                                joint.energies_b[None])[0])


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
        return JointState(np.array(rows[2:], dtype=float), rows[0], rows[1])
    except ValueError as exc:
        raise ParseError(f"joint CSV: {exc}", lines[2]) from None
