"""entrokit: operational thermodynamic-state calculus.

Energy and entropy defined the way they are measured: weight processes,
standard weight processes against thermal reservoirs, temperature from
reservoir energy-change ratios, entropy-maximization equilibria,
decorrelation entropy, and open-system reference accounting.
"""

from .correlations import (
    JointState,
    MarginalPair,
    decorrelation_entropy,
    entropy_difference_correlated,
    joint_energy,
    marginals,
    product_state,
)
from .equilibrium import (
    EquilibriumProblem,
    EquilibriumSolution,
    equilibrium_residual,
    gibbs_residual,
    pressure_of,
    solution_at,
    stable_equilibrium,
)
from .errors import (
    DegenerateStates,
    DomainError,
    EntrokitError,
    InadmissibleStep,
    Infeasible,
    IntegrityError,
    NegativeAmount,
    NonConvergence,
    NotExpressible,
    NotWeightProcess,
    ParseError,
    RangeError,
    RangeExceeded,
)
from .matter_models import (
    IdealGasMixture,
    MatterModel,
    Parameters,
    Species,
    SystemState,
    ThermalReservoir,
    energy_of,
    entropy_of,
    ideal_gas_model,
    reservoir_exchange,
    state,
    temperature_of,
)
from .open_systems import (
    OpenGrid,
    OpenState,
    ReferenceEnvironment,
    gibbs_open_residual,
    open_energy_entropy,
    open_fundamental_relation,
    total_potentials,
)
from .process_engine import (
    DirectContact,
    Isentropic,
    IsothermalContact,
    ProcessRecord,
    Schedule,
    assign_temperature,
    check_entropy_nondecrease,
    measure_entropy,
    measure_entropy_difference,
    measure_entropy_difference_composite,
    measure_temperature_ratio,
    reversible_standard_process,
    run_schedule,
)
from .stoichiometry import (
    Composition,
    ReactionCoordinates,
    ReactionNetwork,
    apply_reactions,
    balance_rate,
    compatibility,
    validate_elemental_set,
)

__version__ = "0.1.0"
