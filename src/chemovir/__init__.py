"""Solver and verification harness for a virus-infection model with
saturated chemotaxis on boxes with no-flux boundaries."""

from .discretization import chemotaxis_divergence, helmholtz_solve, laplacian_neumann
from .grid import Grid, State, lp_norm, read_snapshot, write_snapshot
from .model import (
    Coefficients,
    ExponentInfeasibleError,
    Params,
    alpha_threshold,
    homogeneous_steady_states,
    select_energy_exponent,
)
from .monitors import (
    BoundednessVerdict,
    DiagnosticsRecord,
    check_u_mass_bound,
    check_v_mass_bound,
    classify_boundedness,
    mass_identity_residual,
)
from .stepper import (
    NegativityDetected,
    RunResult,
    StepControl,
    UnstableRunError,
    run,
    stable_dt,
    step,
)
from .sweep import SweepResult, SweepRow, SweepSpec, initial_condition_preset, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundednessVerdict", "Coefficients", "DiagnosticsRecord", "ExponentInfeasibleError",
    "Grid", "NegativityDetected", "Params", "RunResult", "State", "StepControl",
    "SweepResult", "SweepRow", "SweepSpec", "UnstableRunError",
    "alpha_threshold", "check_u_mass_bound", "check_v_mass_bound",
    "chemotaxis_divergence", "classify_boundedness",
    "helmholtz_solve",
    "homogeneous_steady_states", "initial_condition_preset",
    "laplacian_neumann", "lp_norm", "mass_identity_residual",
    "read_snapshot", "run", "run_sweep",
    "select_energy_exponent", "stable_dt", "step", "write_snapshot",
]
