"""Exception hierarchy shared by all entrokit modules."""

from __future__ import annotations


class EntrokitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EntrokitError):
    """A state or argument lies outside a model's admissible domain."""


class RangeError(EntrokitError):
    """A requested entropy value is outside the attainable range of a model."""


class RangeExceeded(EntrokitError):
    """A reservoir was asked to move outside its finite energy range."""


class NegativeAmount(EntrokitError):
    """A composition operation produced a negative amount."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"amount {index} would become negative ({value:.6g})")


class DegenerateStates(EntrokitError):
    """The probe states coincide in entropy, so a reservoir-energy ratio is undefined."""


class InadmissibleStep(EntrokitError):
    """A schedule step would violate its own invariants (negative entropy production,
    temperature mismatch at an isothermal contact, or an unreachable target)."""


class Infeasible(EntrokitError):
    """The constraint set of an equilibrium problem is empty."""


class NonConvergence(EntrokitError):
    """The solver exhausted its iteration budget; the best iterate is attached."""

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class NotExpressible(EntrokitError):
    """A composition cannot be formed from the declared elemental species."""


class ParseError(EntrokitError):
    """Scenario text could not be parsed."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class IntegrityError(EntrokitError):
    """A scenario references something it never declared, or declares it inconsistently."""
