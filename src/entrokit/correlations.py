"""Discrete joint probability tables and decorrelation-entropy bookkeeping.

A classical realization of correlated composite states: the composite state
is a joint table over subsystem outcomes, the uncorrelated counterpart is the
product of its marginals, and the entropy gained by decorrelating is the
mutual information of the table (natural log; 0 ln 0 = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .stoichiometry import _frozen_array

PROB_TOL = 1e-12


def _shannon(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True)
class JointState:
    """Joint probability table with per-outcome energies for each subsystem."""

    table: np.ndarray
    energies_a: np.ndarray
    energies_b: np.ndarray

    def __post_init__(self):
        table = np.atleast_2d(np.array(self.table, dtype=float))
        ea = np.atleast_1d(np.array(self.energies_a, dtype=float))
        eb = np.atleast_1d(np.array(self.energies_b, dtype=float))
        if not all(np.isfinite(a).all() for a in (table, ea, eb)):
            raise ValueError("probabilities and energies must be finite")
        if table.shape != (ea.shape[0], eb.shape[0]):
            raise ValueError(
                f"table shape {table.shape} does not match energies "
                f"({ea.shape[0]}, {eb.shape[0]})"
            )
        if np.any(table < 0.0):
            raise ValueError("probabilities must be non-negative")
        if abs(table.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {table.sum():.15g}, not 1")
        object.__setattr__(self, "table", _frozen_array(table))
        object.__setattr__(self, "energies_a", _frozen_array(ea))
        object.__setattr__(self, "energies_b", _frozen_array(eb))

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape


@dataclass(frozen=True)
class MarginalPair:
    """Subsystem outcome distributions obtained from a joint table."""

    p_a: np.ndarray
    p_b: np.ndarray

    def __post_init__(self):
        pa = np.atleast_1d(np.array(self.p_a, dtype=float))
        pb = np.atleast_1d(np.array(self.p_b, dtype=float))
        for name, p in (("p_a", pa), ("p_b", pb)):
            if np.any(p < -PROB_TOL) or abs(p.sum() - 1.0) > PROB_TOL:
                raise ValueError(f"{name} is not a probability vector")
        object.__setattr__(self, "p_a", _frozen_array(pa))
        object.__setattr__(self, "p_b", _frozen_array(pb))


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
    m = marginals(joint)
    return _shannon(m.p_a) + _shannon(m.p_b) - _shannon(joint.table)


def joint_energy(joint: JointState) -> float:
    """Mean energy of the composite; depends only on the marginals."""
    p = joint.table
    return float(p.sum(axis=1) @ joint.energies_a + p.sum(axis=0) @ joint.energies_b)


def entropy_difference_correlated(j1: JointState, j2: JointState) -> float:
    """Composite entropy difference between two correlated states.

    Combines the subsystem entropy differences with the change of
    decorrelation entropy; identically equal to H(p2) - H(p1).
    """
    m1, m2 = marginals(j1), marginals(j2)
    d_a = _shannon(m2.p_a) - _shannon(m1.p_a)
    d_b = _shannon(m2.p_b) - _shannon(m1.p_b)
    d_sigma = decorrelation_entropy(j2) - decorrelation_entropy(j1)
    return d_a + d_b - d_sigma


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
