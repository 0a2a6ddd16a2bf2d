"""Objective evaluation, decomposition, and the frozen quadrature oracle."""

import math

import numpy as np
import pytest

from sircontrol import (
    RunningCost,
    decompose_objective,
    defective_terminal,
    evaluate_objective,
    evaluate_objective_trapezoid,
    integrate_state_forward,
    running_cost,
)

from conftest import make_baseline_params
from fixtures import reference_values


def constant_run(p, cost, u1=0.0, u2=0.0):
    n = p.n_steps
    return integrate_state_forward(np.full(n + 1, u1), np.full(n + 1, u2), cost, p)


class TestEvaluateObjective:
    def test_zero_integrand_gives_zero(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        traj = constant_run(baseline_params, cost)
        assert evaluate_objective(traj) == 0.0

    def test_closed_form_infected_load(self):
        # beta = 0, u = 0: integral of a_i * I is a_i*i0*(1 - e^(-alpha T))/alpha.
        p = make_baseline_params(beta=0.0)
        cost = running_cost(p)
        traj = constant_run(p, cost)
        want = cost.a_i * p.i0 * (1.0 - math.exp(-p.alpha * p.horizon)) / p.alpha
        assert evaluate_objective(traj) == pytest.approx(want, rel=1e-10)

    def test_frozen_fine_quadrature_oracle(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.1, u2=0.1)
        got = evaluate_objective(traj)
        assert got == pytest.approx(reference_values.CONSTANT_CONTROL_OBJECTIVE, rel=1e-8)

    def test_nonnegative_on_random_schedules(self, baseline_params, baseline_cost):
        rng = np.random.default_rng(29)
        for _ in range(5):
            u1 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
            u2 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
            traj = integrate_state_forward(u1, u2, baseline_cost, baseline_params)
            assert evaluate_objective(traj) >= 0.0

    def test_monotone_in_state_weight_on_fixed_trajectory(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.2, u2=0.2)
        low = evaluate_objective_trapezoid(traj, RunningCost(a_i=0.5, w1=1.0, w2=1.0))
        high = evaluate_objective_trapezoid(traj, RunningCost(a_i=1.5, w1=1.0, w2=1.0))
        assert high > low

    def test_quadrature_paths_agree(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.3, u2=0.1)
        za = evaluate_objective(traj)
        zt = evaluate_objective_trapezoid(traj, baseline_cost)
        assert zt == pytest.approx(za, rel=1e-6)


class TestDefectiveTerminal:
    def test_zero_death_rate(self, baseline_cost):
        p = make_baseline_params(alpha=0.0)
        traj = constant_run(p, baseline_cost)
        assert defective_terminal(traj) == 0.0

    def test_analytic_decay_integral(self):
        p = make_baseline_params(beta=0.0)
        cost = running_cost(p)
        traj = constant_run(p, cost)
        want = p.i0 * (1.0 - math.exp(-p.alpha * p.horizon))
        assert defective_terminal(traj) == pytest.approx(want, rel=1e-10)

    def test_conservation_identity(self, baseline_params, baseline_cost):
        rng = np.random.default_rng(31)
        u1 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
        u2 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
        traj = integrate_state_forward(u1, u2, baseline_cost, baseline_params)
        total0 = baseline_params.s0 + baseline_params.i0 + baseline_params.r0
        want = total0 - (traj.s[-1] + traj.i[-1] + traj.r[-1])
        assert defective_terminal(traj) == pytest.approx(want, rel=1e-9)


class TestDecomposition:
    def test_parts_sum_to_the_objective(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.4, u2=0.2)
        split = decompose_objective(traj)
        total = evaluate_objective(traj)
        assert split.control_cost + split.state_cost == pytest.approx(total, rel=1e-10)

    def test_zero_controls_have_zero_control_cost(self, baseline_params, baseline_cost):
        split = decompose_objective(constant_run(baseline_params, baseline_cost))
        assert split.control_cost == 0.0

    def test_zero_state_weight_has_zero_state_cost(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        split = decompose_objective(constant_run(baseline_params, cost, u1=0.3, u2=0.3))
        assert split.state_cost == 0.0

    def test_new_functional_state_cost_is_c3_times_defective(self, baseline_params, baseline_cost):
        traj = constant_run(baseline_params, baseline_cost, u1=0.2, u2=0.5)
        split = decompose_objective(traj)
        assert split.state_cost / baseline_params.c3 == pytest.approx(
            defective_terminal(traj), rel=1e-8
        )
