"""Built-in invariant suite behind the ``check`` command, on ``model.BASELINE`` by default.

Three cheap global diagnostics that catch most integration mistakes:
4th-order convergence on an analytically solvable decay case, node-count
conservation under control, and Hamiltonian constancy along a converged
extremal.  Its two measures, conservation_drift and hamiltonian_spread,
are functions of a trajectory, written once here and imported by module path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError
from .model import BASELINE, ModelParams, RunningCost, hamiltonian, running_cost
from .integrate import Trajectory, integrate_state_forward
from .solvers import solve_shooting

__all__ = ["CheckResult", "run_self_check"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _decay_error(p: ModelParams) -> float:
    cost = running_cost(replace(p, functional="new"))
    zero = np.zeros(p.n_steps + 1)
    traj = integrate_state_forward(zero, zero, cost, p)
    exact = p.i0 * np.exp(-p.alpha * traj.t)
    return float(np.max(np.abs(traj.i - exact)))


def conservation_drift(traj: Trajectory) -> float:
    """Largest |S+I+R+D - N0| over the nodes, relative to N0 = S+I+R+D at t = 0, absolute if N0 is 0."""
    total0 = float(traj.s[0] + traj.i[0] + traj.r[0] + traj.d[0])
    drift = float(np.max(np.abs(traj.s + traj.i + traj.r + traj.d - total0)))
    return drift / total0 if total0 > 0.0 else drift


def hamiltonian_spread(traj: Trajectory, cost: RunningCost, p: ModelParams) -> float:
    """(max H - min H) / (1 + |mean H|) along a trajectory with costates."""
    values = hamiltonian(traj.s, traj.i, traj.psi1, traj.psi2, traj.u1, traj.u2,
                         p.beta, p.alpha, cost.a_i, cost.w1, cost.w2)
    return float((values.max() - values.min()) / (1.0 + abs(values.mean())))


def check_rk4_order(p: ModelParams) -> tuple[bool, str]:
    """Halving h must shrink the decay-case error nearly 16-fold."""
    base = replace(p, beta=0.0, alpha=0.2, i0=5.0, horizon=10.0)
    ratio = _decay_error(replace(base, n_steps=500)) / _decay_error(replace(base, n_steps=1000))
    ok = 14.0 <= ratio <= 18.0
    return ok, f"error ratio {ratio:.2f} (expected within [14, 18])"


def check_conservation(p: ModelParams) -> tuple[bool, str]:
    """S+I+R+D must stay at its initial value under a driven schedule."""
    cost = running_cost(p)
    u1 = np.full(p.n_steps + 1, 0.5 * p.u1_max)
    u2 = np.full(p.n_steps + 1, 0.5 * p.u2_max)
    drift = conservation_drift(integrate_state_forward(u1, u2, cost, p))
    kind = "relative" if p.s0 + p.i0 + p.r0 > 0.0 else "absolute"
    ok = drift <= 1e-9
    return ok, f"max {kind} drift {drift:.3e} (tolerance 1e-9)"


def check_hamiltonian_constancy(p: ModelParams) -> tuple[bool, str]:
    """H must be flat along a converged extremal of this autonomous system."""
    p4 = replace(p, n_steps=4000)
    cost = running_cost(p4)
    report = solve_shooting(cost, p4)
    if not report.converged:
        return False, "shooting solve did not converge"
    spread = hamiltonian_spread(report.trajectory, cost, p4)
    ok = spread <= 1e-5
    return ok, f"normalized spread {spread:.3e} (tolerance 1e-5)"


_CHECKS = (
    ("rk4-order", check_rk4_order),
    ("conservation", check_conservation),
    ("hamiltonian-constancy", check_hamiltonian_constancy),
)


def run_self_check(p: ModelParams = BASELINE) -> list[CheckResult]:
    """Run every check; one whose integration diverges fails with that error."""
    results = []
    for name, check in _CHECKS:
        try:
            passed, detail = check(p)
        except NonFiniteError as exc:
            passed, detail = False, str(exc)
        results.append(CheckResult(name, passed, detail))
    return results
