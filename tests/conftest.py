import numpy as np
import pytest

from sircontrol import ModelParams, RunningCost, Trajectory, running_cost, state_rhs


def make_baseline_params(**overrides) -> ModelParams:
    """The desk-scale scenario most tests and the acceptance gate share."""
    base = dict(
        beta=0.01, alpha=0.1, c1=1.0, c2=1.0, c3=10.0,
        u1_max=0.9, u2_max=0.9, horizon=10.0, s0=95.0, i0=5.0, r0=0.0,
        n_steps=2000, functional="new",
    )
    base.update(overrides)
    return ModelParams(**base)


def evaluate_objective_trapezoid(traj: Trajectory, cost: RunningCost) -> float:
    """Trapezoid quadrature of the sampled integrand: an O(h^2) reference for z[-1]."""
    # The running cost (state_rhs's dz) does not depend on beta or alpha.
    _, _, _, _, g, _ = state_rhs(traj.s, traj.i, traj.u1, traj.u2, 0.0, 0.0, cost.a_i, cost.w1, cost.w2)
    h = traj.t[1] - traj.t[0]
    return float(h * (np.sum(g) - 0.5 * (g[0] + g[-1])))


@pytest.fixture
def baseline_params() -> ModelParams:
    return make_baseline_params()


@pytest.fixture
def baseline_cost(baseline_params):
    return running_cost(baseline_params)
