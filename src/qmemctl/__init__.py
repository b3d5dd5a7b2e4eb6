"""Measurement-based LQG control and initial-point smoothing for linear
quantum memory models, at the level of first and second moments.

The pipeline: derive dynamics matrices from physical parameters (model),
solve the forward smoothing/filtering Riccati equation for the Kalman gain
schedule (filtering), solve the backward control Riccati equation for the
feedback gain schedule (control), propagate closed-loop moments and cost
functionals (closedloop), and verify everything against a classical
Gaussian surrogate simulation (montecarlo), with pass/fail limits (checks).
Each Riccati formula is reached through one class, FilterRiccati or
ControlRiccati, which holds the equation's constant coefficients.
"""

from .closedloop import (
    ClosedLoopSolution,
    bellman_value,
    decoherence_time,
    min_cost_identity,
    moment_rhs,
    solve_closed_loop,
)
from .control import ControlRiccati, ControlSolution, solve_control
from .errors import (
    DimensionError,
    DivergenceError,
    GridMismatchError,
    InvalidScenarioError,
    PipelineError,
    QmemctlError,
    ScenarioFormatError,
)
from .filtering import FilterRiccati, FilterSolution, hamiltonian_matrix, solve_filter
from .model import (
    ScenarioSpec,
    SystemMatrices,
    ValidationReport,
    build_structure_matrices,
    derive_system_matrices,
    physical_realizability_residual,
    validate_spec,
)
from .montecarlo import (
    GainSchedule,
    SampleMoments,
    checkpoint_nodes,
    cross_moment_check,
    derive_path_seed,
    gain_schedule,
    psd_sqrt,
    simulate_ensemble,
)
from .ode import TimeGrid, integrate_matrix_ode, sample_grid

__version__ = "0.1.0"
