"""Objective evaluation on trajectories.

The primary value is the terminal sample of the augmented cost channel
``z``, carried at the integrator's order.  A trapezoid re-evaluation from
the sampled integrand is exposed for cross-checking the two quadrature
paths against each other, and the control/state split comes from the
second augmented channel ``z_control``, so the decomposition sums to the
primary value exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .integrate import Trajectory
from .model import RunningCost, state_rhs


class ObjectiveSplit(NamedTuple):
    control_cost: float
    state_cost: float


def evaluate_objective(traj: Trajectory) -> float:
    """Objective value z(T) from the augmented cost integration."""
    return float(traj.z[-1])


def evaluate_objective_trapezoid(traj: Trajectory, cost: RunningCost) -> float:
    """Trapezoid quadrature of the sampled integrand; O(h^2) cross-check."""
    # The running cost (state_rhs's dz) does not depend on beta or alpha.
    _, _, _, _, g, _ = state_rhs(traj.s, traj.i, traj.u1, traj.u2, 0.0, 0.0, cost.a_i, cost.w1, cost.w2)
    h = traj.t[1] - traj.t[0]
    return float(h * (np.sum(g) - 0.5 * (g[0] + g[-1])))


def defective_terminal(traj: Trajectory) -> float:
    """Terminal count of virus-defected nodes, D(T) = integral of alpha*I."""
    return float(traj.d[-1])


def decompose_objective(traj: Trajectory) -> ObjectiveSplit:
    """Split the objective into control effort and state load.

    control_cost integrates w1*u1^2 + w2*u2^2, state_cost integrates
    a_i*I; the two sum to evaluate_objective exactly by construction.
    For the "new" functional the state part equals c3 * D(T) up to
    floating-point rounding of identical quadratures.
    """
    total = float(traj.z[-1])
    control = float(traj.z_control[-1])
    return ObjectiveSplit(control_cost=control, state_cost=total - control)
