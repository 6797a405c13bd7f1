"""Shared test models, and the mask that hides a model's closed forms."""

import copy

from entrokit.errors import DomainError
from entrokit.matter_models import TOL_INV, MatterModel


#: Every method MatterModel derives for a model: all but the relation, its
#: floor and ``log_amounts``, which has no derivation.
EVERY_DERIVED = tuple(name for name, value in vars(MatterModel).items()
                      if callable(value) and not name.startswith("_")
                      and name not in ("entropy", "energy_floor", "log_amounts"))


def masked(model: MatterModel, hide) -> MatterModel:
    """A copy of ``model`` with the methods named in ``hide`` hidden: each
    becomes MatterModel's own, so it takes the base derivation, a finite
    difference or a bracketed root (``log_amounts`` raises
    NotImplementedError).  A name MatterModel does not define raises
    AttributeError."""
    hidden = {name: getattr(MatterModel, name) for name in hide}
    clone = copy.copy(model)
    clone.__class__ = type(f"Masked{type(model).__name__}", (type(model),), hidden)
    return clone


class ReservoirModel(MatterModel):
    """Fundamental relation of a thermal reservoir as a linear test model:
    S(E) = E / T_R on a finite energy range, so every stable equilibrium
    state has the same temperature."""

    def __init__(self, temperature: float, e_min: float, e_max: float):
        if temperature <= 0:
            raise ValueError("reservoir temperature must be positive")
        if not e_min < e_max:
            raise ValueError("reservoir range must be a nonempty interval")
        self.temperature = float(temperature)
        self.e_min = float(e_min)
        self.e_max = float(e_max)

    def entropy(self, energy, params, comp) -> float:
        if not self.e_min <= energy <= self.e_max:
            raise DomainError(
                f"reservoir energy {energy:.6g} outside [{self.e_min:.6g}, {self.e_max:.6g}]"
            )
        return energy / self.temperature

    def energy_floor(self, params, comp) -> float:
        return self.e_min

    def energy_ceiling(self, params, comp) -> float:
        return self.e_max

    def ds_de(self, energy, params, comp) -> float:
        return 1.0 / self.temperature

    def invert_entropy(self, entropy, params, comp, tol=TOL_INV) -> float:
        return entropy * self.temperature
