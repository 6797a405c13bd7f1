"""Exception hierarchy and value-record bases shared by all entrokit modules."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A value record: a slotted class with a hand-written ``__init__``,
    whose fields are its ``__slots__`` other than ``__dict__``, unless it
    lists ``_fields`` itself.  Records of one class are equal when their fields
    are, ``repr`` names each field, and a record is mutable and unhashable;
    a ``FrozenRecord`` is immutable and hashed by its fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields") or tuple(
            name for name in cls.__slots__ if name != "__dict__")
        if fields:  # FrozenRecord, a base, has none
            cls._fields = fields
            cls._key = staticmethod(attrgetter(*fields))  # the values; one field's bare

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__, which takes its fields in order
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class FrozenRecord(Record):
    """A record whose fields are set once, in ``__init__``; assigning or
    deleting one raises AttributeError.  ``__init__`` sets slot ``x`` with
    ``self._set_x(self, value)``: the setter of the slot's own descriptor,
    kept on the class, which passes by the refusing ``__setattr__`` at about
    two thirds of the cost of ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        for name in cls.__slots__:
            if name != "__dict__":
                setattr(cls, f"_set_{name}", cls.__dict__[name].__set__)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
