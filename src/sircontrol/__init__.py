"""Optimal vaccination/treatment schedules for an SIR virus-spreading model.

The model adds a Defective compartment (nodes destroyed by the virus) to
the classic SIR dynamics and minimizes a quadratic control cost plus the
defected-node count.  The first-order optimality conditions are solved as
a two-point boundary-value problem by single shooting with RK4, with a
forward-backward sweep solver and a brute-force schedule enumeration as
independent cross-checks, and an alpha study contrasting this objective
against the legacy infected-load form it replaces.
"""

from .alpha_sweep import SweepRow, sweep_alpha
from .brute_force import BruteForceResult, brute_force_best, control_levels
from .config import ResolvedConfig, parse_config
from .errors import (
    ConfigError,
    NonFiniteError,
    SirControlError,
    TooLargeError,
)
from .integrate import (
    Trajectory,
    expand_piecewise_schedule,
    integrate_adjoint_backward,
    integrate_coupled,
    integrate_state_forward,
    interval_boundaries,
)
from .model import (
    FUNCTIONAL_LEGACY,
    FUNCTIONAL_NEW,
    ModelParams,
    RunningCost,
    adjoint_rhs,
    hamiltonian,
    optimal_controls,
    optimal_controls_lanes,
    running_cost,
    state_rhs,
)
from .selfcheck import CheckResult, run_self_check
from .solvers import (
    SolveReport,
    control_gradient,
    shooting_residual,
    solve_forward_backward,
    solve_shooting,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
    "CheckResult",
    "ConfigError",
    "FUNCTIONAL_LEGACY",
    "FUNCTIONAL_NEW",
    "ModelParams",
    "NonFiniteError",
    "ResolvedConfig",
    "RunningCost",
    "SirControlError",
    "SolveReport",
    "SweepRow",
    "TooLargeError",
    "Trajectory",
    "adjoint_rhs",
    "brute_force_best",
    "control_gradient",
    "control_levels",
    "expand_piecewise_schedule",
    "hamiltonian",
    "integrate_adjoint_backward",
    "integrate_coupled",
    "integrate_state_forward",
    "interval_boundaries",
    "optimal_controls",
    "optimal_controls_lanes",
    "parse_config",
    "running_cost",
    "run_self_check",
    "shooting_residual",
    "solve_forward_backward",
    "solve_shooting",
    "state_rhs",
    "sweep_alpha",
    "__version__",
]
