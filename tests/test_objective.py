"""The objective, its cost split and D(T), read off a trajectory's channels.

z[-1] is the objective, z_control[-1] the control effort, the rest of
z[-1] the state load, and d[-1] is D(T); the trapezoid reference and the
frozen fine-quadrature value check the z channel from outside.
"""

import math

import numpy as np
import pytest

from sircontrol import RunningCost, integrate_state_forward, running_cost

from conftest import evaluate_objective_trapezoid, make_baseline_params
from fixtures import reference_values


def objective(traj):
    return float(traj.z[-1])


def split(traj):
    """(control effort, state load) of a trajectory's objective."""
    control = float(traj.z_control[-1])
    return control, objective(traj) - control


def constant_run(p, cost, u1=0.0, u2=0.0):
    n = p.n_steps
    return integrate_state_forward(np.full(n + 1, u1), np.full(n + 1, u2), cost, p)


class TestEvaluateObjective:
    def test_zero_integrand_gives_zero(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        traj = constant_run(baseline_params, cost)
        assert objective(traj) == 0.0

    def test_closed_form_infected_load(self):
        # beta = 0, u = 0: integral of a_i * I is a_i*i0*(1 - e^(-alpha T))/alpha.
        p = make_baseline_params(beta=0.0)
        cost = running_cost(p)
        traj = constant_run(p, cost)
        want = cost.a_i * p.i0 * (1.0 - math.exp(-p.alpha * p.horizon)) / p.alpha
        assert objective(traj) == pytest.approx(want, rel=1e-10)

    def test_frozen_fine_quadrature_oracle(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.1, u2=0.1)
        got = objective(traj)
        assert got == pytest.approx(reference_values.CONSTANT_CONTROL_OBJECTIVE, rel=1e-8)

    def test_nonnegative_on_random_schedules(self, baseline_params, baseline_cost):
        rng = np.random.default_rng(29)
        for _ in range(5):
            u1 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
            u2 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
            traj = integrate_state_forward(u1, u2, baseline_cost, baseline_params)
            assert objective(traj) >= 0.0

    def test_monotone_in_state_weight_on_fixed_trajectory(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.2, u2=0.2)
        low = evaluate_objective_trapezoid(traj, RunningCost(a_i=0.5, w1=1.0, w2=1.0))
        high = evaluate_objective_trapezoid(traj, RunningCost(a_i=1.5, w1=1.0, w2=1.0))
        assert high > low

    def test_quadrature_paths_agree(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.3, u2=0.1)
        za = objective(traj)
        zt = evaluate_objective_trapezoid(traj, baseline_cost)
        assert zt == pytest.approx(za, rel=1e-6)


class TestDefectiveTerminal:
    def test_zero_death_rate(self, baseline_cost):
        p = make_baseline_params(alpha=0.0)
        traj = constant_run(p, baseline_cost)
        assert traj.d[-1] == 0.0

    def test_analytic_decay_integral(self):
        p = make_baseline_params(beta=0.0)
        cost = running_cost(p)
        traj = constant_run(p, cost)
        want = p.i0 * (1.0 - math.exp(-p.alpha * p.horizon))
        assert traj.d[-1] == pytest.approx(want, rel=1e-10)

    def test_conservation_identity(self, baseline_params, baseline_cost):
        rng = np.random.default_rng(31)
        u1 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
        u2 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
        traj = integrate_state_forward(u1, u2, baseline_cost, baseline_params)
        total0 = baseline_params.s0 + baseline_params.i0 + baseline_params.r0
        want = total0 - (traj.s[-1] + traj.i[-1] + traj.r[-1])
        assert traj.d[-1] == pytest.approx(want, rel=1e-9)


class TestDecomposition:
    def test_parts_sum_to_the_objective(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.4, u2=0.2)
        control, state = split(traj)
        assert control + state == pytest.approx(objective(traj), rel=1e-10)

    def test_zero_controls_have_zero_control_cost(self, baseline_params, baseline_cost):
        control, _ = split(constant_run(baseline_params, baseline_cost))
        assert control == 0.0

    def test_zero_state_weight_has_zero_state_cost(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        _, state = split(constant_run(baseline_params, cost, u1=0.3, u2=0.3))
        assert state == 0.0

    def test_new_functional_state_cost_is_c3_times_defective(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.2, u2=0.5)
        _, state = split(traj)
        assert state / baseline_params.c3 == pytest.approx(
            traj.d[-1], rel=1e-8
        )
