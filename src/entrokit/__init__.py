"""entrokit: operational thermodynamic-state calculus.

Energy and entropy defined the way they are measured: weight processes,
standard weight processes against thermal reservoirs, temperature from
reservoir energy-change ratios, entropy-maximization equilibria,
decorrelation entropy, and open-system reference accounting.

Each name below is imported from its module on first use and then kept in
this namespace, so a caller pays only for the modules it uses.
"""

import importlib

#: module -> the names it exports here
_EXPORTS = {
    "correlations": ("JointState", "MarginalPair", "decorrelation_entropy", "joint_energy",
                     "marginals", "product_state"),
    "equilibrium": ("EquilibriumProblem", "EquilibriumSolution", "equilibrium_residual",
                    "gibbs_residual", "pressure_of", "solution_at", "stable_equilibrium"),
    "errors": ("DegenerateStates", "DomainError", "EntrokitError", "InadmissibleStep",
               "Infeasible", "IntegrityError", "NegativeAmount", "NonConvergence",
               "NotExpressible", "ParseError", "RangeError", "RangeExceeded"),
    "matter_models": ("IdealGasMixture", "MatterModel", "Parameters", "Species",
                      "SystemState", "ThermalReservoir", "energy_of", "entropy_of",
                      "ideal_gas_model", "reservoir_exchange", "state", "temperature_of"),
    "open_systems": ("OpenGrid", "OpenState", "ReferenceEnvironment", "gibbs_open_residual",
                     "open_energy_entropy", "open_fundamental_relation", "total_potentials"),
    "process_engine": ("DirectContact", "Isentropic", "IsothermalContact", "ProcessRecord",
                       "Schedule", "assign_temperature", "measure_entropy",
                       "measure_entropy_difference", "measure_entropy_difference_composite",
                       "measure_temperature_ratio", "reversible_standard_process",
                       "run_schedule"),
    "stoichiometry": ("Composition", "ReactionCoordinates", "ReactionNetwork",
                      "validate_elemental_set"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups, and rebinding from outside, see it here
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
