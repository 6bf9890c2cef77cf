"""Steady-state simulator for a three-qubit nonequilibrium absorption refrigerator."""

__version__ = "0.1.0"

from .errors import (
    DegenerateSteadyStateError,
    EmptyCoolingWindowError,
    NeqFridgeError,
    NonCoolingRegimeError,
    ParameterError,
    PopulationInversionError,
    ResonanceInfeasibleError,
    VirtualTemperaturePoleError,
)
from .linalg import embed, kron, partial_trace, steady_null_space, unvec, vec
from .model import (
    Frame,
    Hamiltonians,
    ModelParams,
    ThermalPopulations,
    build_hamiltonians,
    resolve_resonance,
    resonant_frame,
    thermal_population,
    thermal_populations,
    tilde_populations,
    virtual_coherence,
    virtual_temperature,
)
from .dissipation import (
    GeneratorParts,
    JumpOperatorSet,
    LindbladChannel,
    assemble_liouvillian,
    build_generator_parts,
    fridge_channel,
    jump_operator_set,
    reset_channel,
    tilde_channel,
)
from .steadystate import (
    OracleSolve,
    SteadyDecomposition,
    SteadyStateResult,
    analytic_steady_state,
    numeric_steady_state,
    solve_oracle,
    steady_coefficients,
)
from .observables import (
    CurrentReport,
    PerformanceReport,
    cooling_condition,
    cop_carnot,
    cop_g,
    cop_tilde,
    critical_gamma,
    eta_star_max,
    eta_star_min,
    heat_currents,
    local_target_temperature,
    max_cop_identity,
    performance_report,
)
from .experiments import (
    CoolingWindow,
    EnsembleSpec,
    MaxPowerResult,
    MinCopResult,
    SweepSpec,
    cooling_window,
    cooling_windows,
    high_temperature_saturation,
    maximize_cooling_power,
    maximize_cooling_powers,
    minimize_cop,
    random_ensemble,
    sweep,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
)
from .invariants import ValidationReport, validate
