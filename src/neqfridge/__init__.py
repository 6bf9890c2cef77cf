"""Steady-state simulator for a three-qubit nonequilibrium absorption refrigerator."""

__version__ = "0.1.0"

from .errors import (
    DegenerateSteadyStateError,
    EmptyCoolingWindowError,
    NeqFridgeError,
    ParameterError,
    ResonanceInfeasibleError,
)
from .linalg import steady_null_space
from .model import (
    Frame,
    Hamiltonians,
    ModelParams,
    ThermalPopulations,
    build_hamiltonians,
    resonant_frame,
    thermal_population,
    tilde_populations,
    virtual_coherence,
    virtual_temperature,
)
from .dissipation import GeneratorParts, assemble_liouvillian, build_generator_parts
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
    closed_form_table,
    cop_carnot,
    cop_g,
    cop_tilde,
    critical_gamma,
    eta_star_max,
    eta_star_min,
    heat_currents,
    local_target_temperature,
)
from .experiments import (
    CoolingWindow,
    EnsembleSpec,
    MaxPowerResult,
    SweepSpec,
    cooling_window,
    cooling_windows,
    maximize_cooling_power,
    maximize_cooling_powers,
    random_ensemble,
    sweep,
    sweep_fig3,
    sweep_fig4,
    sweep_fig5,
)
from .invariants import ValidationReport, validate
