"""Deterministic CSV and plain-text output.

Numbers are rendered with the shortest decimal representation that
round-trips to the same float (Python's repr), locale-independent, so a
given configuration always produces byte-identical files.  Every file
starts with a comment header echoing the full resolved configuration.
"""

from __future__ import annotations

from pathlib import Path

from .alpha_sweep import SweepRow
from .brute_force import BruteForceResult
from .config import ResolvedConfig, config_lines
from .solvers import SolveReport

__all__ = [
    "fmt",
    "header_lines",
    "trajectory_csv",
    "sweep_csv",
    "oracle_compare_csv",
    "solve_summary",
    "write_text",
]

# Each CSV's columns, written once: a trajectory column lower-cased is a
# Trajectory attribute, a sweep column a SweepRow attribute.
TRAJECTORY_COLUMNS = ("t", "S", "I", "R", "D", "psi1", "psi2", "u1", "u2", "z")
SWEEP_COLUMNS = (
    "alpha", "objective_new", "objective_legacy", "defective_terminal_new",
    "converged_new", "converged_legacy", "newton_iters_new", "newton_iters_legacy",
)


def fmt(value) -> str:
    """Shortest round-trip rendering; booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def header_lines(config: ResolvedConfig, command: str) -> list[str]:
    lines = [f"# sircontrol {command}"]
    lines.extend(f"# {line}" for line in config_lines(config))
    return lines


def trajectory_csv(report: SolveReport, config: ResolvedConfig) -> str:
    traj = report.trajectory
    lines = header_lines(config, "solve")
    lines.append(",".join(TRAJECTORY_COLUMNS))
    # Every column is float64, and on a Python float fmt is repr.
    columns = [map(repr, getattr(traj, name.lower()).tolist()) for name in TRAJECTORY_COLUMNS]
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def sweep_csv(rows: list[SweepRow], config: ResolvedConfig) -> str:
    lines = header_lines(config, "sweep")
    lines.append(",".join(SWEEP_COLUMNS))
    lines.extend(",".join(fmt(getattr(row, name)) for name in SWEEP_COLUMNS) for row in rows)
    return "\n".join(lines) + "\n"


def oracle_compare_csv(
    report: SolveReport, oracle: BruteForceResult, config: ResolvedConfig
) -> str:
    gap = oracle.objective - report.objective
    lines = header_lines(config, "oracle-compare")
    lines.append("quantity,value")
    lines.append(f"solver_objective,{fmt(report.objective)}")
    lines.append(f"solver_converged,{fmt(report.converged)}")
    lines.append(f"solver_residual_norm,{fmt(report.residual_norm)}")
    lines.append(f"solver_newton_iters,{fmt(report.newton_iters)}")
    lines.append(f"oracle_best_objective,{fmt(oracle.objective)}")
    lines.append(f"oracle_schedules_evaluated,{fmt(oracle.n_schedules)}")
    lines.append(f"oracle_minus_solver,{fmt(gap)}")
    for j, (v1, v2) in enumerate(zip(oracle.u1_levels, oracle.u2_levels)):
        lines.append(f"oracle_u1_interval_{j},{fmt(v1)}")
        lines.append(f"oracle_u2_interval_{j},{fmt(v2)}")
    return "\n".join(lines) + "\n"


def solve_summary(report: SolveReport, config: ResolvedConfig) -> str:
    traj = report.trajectory
    control = float(traj.z_control[-1])
    status = "converged" if report.converged else "NOT CONVERGED"
    lines = header_lines(config, "solve")
    lines.extend([
        f"solver:             {report.solver} ({status})",
        f"objective:          {fmt(report.objective)}",
        f"  control effort:   {fmt(control)}",
        f"  state load:       {fmt(float(traj.z[-1]) - control)}",
        f"defective nodes:    {fmt(traj.d[-1])}",
        f"terminal residual:  {fmt(report.residual_norm)}",
        f"newton iterations:  {report.newton_iters}",
        f"seed sweeps:        {report.sweeps}",
        f"initial costate:    ({fmt(traj.psi1[0])}, {fmt(traj.psi2[0])})",
        f"final state:        S={fmt(traj.s[-1])} I={fmt(traj.i[-1])} "
        f"R={fmt(traj.r[-1])} D={fmt(traj.d[-1])}",
    ])
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8", newline="\n")
