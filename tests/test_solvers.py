"""Shooting and forward-backward solvers, adjoint gradient, cross-checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sircontrol import (
    NonFiniteError,
    RunningCost,
    control_gradient,
    expand_piecewise_schedule,
    integrate_state_forward,
    interval_boundaries,
    optimal_controls,
    running_cost,
    shooting_residual,
    solve_forward_backward,
    solve_shooting,
    sweep_alpha,
)

from conftest import make_baseline_params
from fixtures import reference_values


def uncontrolled_objective(p, cost) -> float:
    zeros = np.zeros(p.n_steps + 1)
    return float(integrate_state_forward(zeros, zeros, cost, p).z[-1])


def constant_policy_objective(p, cost, u1, u2) -> float:
    n = p.n_steps
    traj = integrate_state_forward(np.full(n + 1, u1), np.full(n + 1, u2), cost, p)
    return float(traj.z[-1])


class TestShootingResidual:
    def test_homogeneous_fixed_point(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        assert shooting_residual((0.0, 0.0), cost, baseline_params) == (0.0, 0.0)

    def test_decoupled_first_component_when_infection_free(self, baseline_params):
        p = replace(baseline_params, i0=0.0)
        cost = running_cost(p)
        r1, _ = shooting_residual((0.0, -0.5), cost, p)
        assert r1 == 0.0

    def test_frozen_residual_from_zero_start(self, baseline_params, baseline_cost):
        r1, r2 = shooting_residual((0.0, 0.0), baseline_cost, baseline_params)
        frozen1, frozen2 = reference_values.RESIDUAL_AT_ZERO_START
        # Signs recorded from the generating run, not asserted a priori.
        assert r1 < 0.0 and r2 > 0.0
        assert r1 == pytest.approx(frozen1, rel=1e-12)
        assert r2 == pytest.approx(frozen2, rel=1e-12)


class TestSolveShooting:
    def test_zero_state_weight_is_exactly_optimal(self):
        p = make_baseline_params(alpha=0.0)  # new functional puts a_i = c3*alpha = 0
        report = solve_shooting(running_cost(p), p)
        assert report.converged
        assert report.newton_iters <= 1
        assert report.objective == 0.0
        assert np.all(report.trajectory.u1 == 0.0)
        assert np.all(report.trajectory.u2 == 0.0)

    def test_degenerate_control_box_returns_uncontrolled_objective(self, baseline_cost):
        p = make_baseline_params(u1_max=0.0, u2_max=0.0)
        report = solve_shooting(baseline_cost, p)
        assert report.converged
        assert np.all(report.trajectory.u1 == 0.0)
        assert np.all(report.trajectory.u2 == 0.0)
        assert report.objective == uncontrolled_objective(p, baseline_cost)

    def test_baseline_scenario_converges_fast(self, baseline_params, baseline_cost):
        report = solve_shooting(baseline_cost, baseline_params)
        assert report.converged
        assert report.residual_norm <= 1e-10
        assert report.newton_iters <= 30
        assert report.objective == pytest.approx(reference_values.SHOOTING_OBJECTIVE, rel=1e-12)

    def test_controls_satisfy_clamp_law_pointwise(self, baseline_params, baseline_cost):
        traj = solve_shooting(baseline_cost, baseline_params).trajectory
        for k in range(0, baseline_params.n_steps + 1, 97):
            u1, u2 = optimal_controls(
                traj.s[k], traj.i[k], traj.psi1[k], traj.psi2[k],
                baseline_cost.w1, baseline_cost.w2, baseline_params.u1_max, baseline_params.u2_max,
            )
            assert traj.u1[k] == u1
            assert traj.u2[k] == u2

    def test_beats_trivial_policies(self, baseline_params, baseline_cost):
        report = solve_shooting(baseline_cost, baseline_params)
        assert report.objective <= uncontrolled_objective(baseline_params, baseline_cost)
        assert report.objective <= constant_policy_objective(
            baseline_params, baseline_cost, baseline_params.u1_max, baseline_params.u2_max
        )

    def test_honest_failure_report(self, monkeypatch, baseline_params, baseline_cost):
        import sircontrol.solvers

        monkeypatch.setattr(sircontrol.solvers, "_MAX_NEWTON_ITERS", 1)
        report = solve_shooting(baseline_cost, baseline_params)
        assert not report.converged
        assert report.residual_norm > 0.0

    @pytest.mark.parametrize(
        "max_newton_iters, newton_iters, coupled", [(50, 5, 16), (1, 1, 4)]
    )
    def test_report_counts_the_seed_and_newton_work(
        self, monkeypatch, max_newton_iters, newton_iters, coupled
    ):
        # The seed sweep makes one state pass per sweep and a final
        # consistent one.  Newton makes one coupled pass from the seed,
        # then per iteration two Jacobian probes and one full step; one
        # iteration does not converge.
        import sircontrol.solvers

        p = make_baseline_params(n_steps=200)
        monkeypatch.setattr(sircontrol.solvers, "_MAX_NEWTON_ITERS", max_newton_iters)
        calls = {"integrate_coupled": 0, "integrate_state_forward": 0}
        for name in calls:
            original = getattr(sircontrol.solvers, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(sircontrol.solvers, name, counting)
        report = solve_shooting(running_cost(p), p)
        assert report.converged == (max_newton_iters == 50)
        assert report.newton_iters == newton_iters
        assert report.coupled_integrations == calls["integrate_coupled"] == coupled
        assert report.sweeps == calls["integrate_state_forward"] - 1 == 11

    def test_a_step_that_does_not_lower_the_residual_ends_the_solve(self, monkeypatch):
        # A coarse difference step spoils the Jacobian, so the first full
        # step raises the residual norm: the solve stops after that one
        # trial pass (seed pass, two probes, trial) instead of halving it.
        import sircontrol.solvers

        monkeypatch.setattr(sircontrol.solvers, "_FD_EPSILON", 0.01)
        p = make_baseline_params(n_steps=200)
        report = solve_shooting(running_cost(p), p)
        assert not report.converged
        assert report.newton_iters == 1
        assert report.coupled_integrations == 4

    def test_options_validation(self, monkeypatch, baseline_params, baseline_cost):
        # An infinite residual_tol would report any start as converged.
        # Both entry points reject a bad one before any integration.
        import sircontrol.solvers

        def no_integration(*args):
            raise AssertionError("integrated before residual_tol was rejected")

        for name in ("integrate_state_forward", "integrate_coupled"):
            monkeypatch.setattr(sircontrol.solvers, name, no_integration)
        for value in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="residual_tol must be positive"):
                solve_shooting(baseline_cost, baseline_params, residual_tol=value)
            with pytest.raises(ValueError, match="residual_tol must be positive"):
                sweep_alpha(baseline_params, [0.1, 0.2], residual_tol=value)

    def test_every_start_diverging_names_the_earliest_divergence(self):
        # The seed sweep's first pass, the uncontrolled run, blows up at
        # t = 1 here, long before the horizon.
        p = make_baseline_params(beta=5.0, n_steps=20)
        with pytest.raises(NonFiniteError, match=r"\(shooting start diverged\)") as err:
            solve_shooting(running_cost(p), p)
        assert err.value.time == 1.0


    # Long horizons are where starts not seeded by the sweep fared worst:
    # 38-50 Newton steps, and no convergence on the T = 17.45 draw of the
    # parameter box.
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(beta=0.009661, alpha=0.1655, c1=1.0013, c2=1.1949, c3=9.8664, horizon=15.92),
            dict(beta=0.007060, alpha=0.1491, c1=0.9260, c2=0.7781, c3=14.419, horizon=17.45),
            dict(horizon=18.0),
            dict(horizon=18.0, functional="legacy"),
        ],
        ids=["box-T15.92", "box-T17.45", "T18", "legacy-T18"],
    )
    def test_long_horizons_converge_in_few_newton_steps(self, overrides):
        p = make_baseline_params(**overrides)
        cost = running_cost(p)
        shoot = solve_shooting(cost, p)
        sweep = solve_forward_backward(cost, p)
        assert shoot.converged and sweep.converged
        assert shoot.newton_iters <= 8
        assert shoot.coupled_integrations == 1 + 3 * shoot.newton_iters  # no step rejected
        assert abs(shoot.objective - sweep.objective) / abs(sweep.objective) <= 1e-5


class TestSolveForwardBackward:
    def test_zero_state_weight_converges_immediately(self):
        p = make_baseline_params(alpha=0.0)
        report = solve_forward_backward(running_cost(p), p)
        assert report.converged
        assert (report.sweeps, report.newton_iters) == (1, 0)
        assert report.objective == 0.0
        assert np.all(report.trajectory.u1 == 0.0)

    def test_degenerate_control_box(self, baseline_cost):
        p = make_baseline_params(u1_max=0.0, u2_max=0.0)
        report = solve_forward_backward(baseline_cost, p)
        assert report.converged
        assert (report.sweeps, report.newton_iters) == (1, 0)
        assert np.all(report.trajectory.u1 == 0.0)

    # Anderson mixing takes 20-23 sweeps on each scenario here.  A
    # relaxation halved on a stall took 69 (legacy, T15) to 198 (alpha
    # 0.05) and never converged at legacy alpha 0.45, so the bound of 40
    # catches a fallback to slow mixing.
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"functional": "legacy"},
            {"horizon": 15.0},
            {"alpha": 0.05},
            {"functional": "legacy", "alpha": 0.45},
        ],
        ids=["new", "legacy", "T15", "new-alpha0.05", "legacy-alpha0.45"],
    )
    def test_agrees_with_shooting_on_baseline_scenario(self, overrides):
        p = make_baseline_params(**overrides)
        cost = running_cost(p)
        shoot = solve_shooting(cost, p)
        sweep = solve_forward_backward(cost, p)
        assert shoot.converged and sweep.converged
        assert sweep.sweeps <= 40
        assert sweep.residual_norm == 0.0
        gap = abs(shoot.objective - sweep.objective) / abs(shoot.objective)
        assert gap <= 1e-5

    def test_every_swept_schedule_lies_in_the_control_box(self, monkeypatch):
        # Anderson steps extrapolate past [0, u_max] on this box (by up to
        # 0.06 without the clip); every schedule that drives a state pass
        # must be clipped back into it.
        import sircontrol.solvers

        p = make_baseline_params(n_steps=200, u1_max=0.5, u2_max=0.3)
        original = sircontrol.solvers.integrate_state_forward
        passes = 0

        def checking(u1, u2, *args):
            nonlocal passes
            passes += 1
            assert np.all((u1 >= 0.0) & (u1 <= p.u1_max))
            assert np.all((u2 >= 0.0) & (u2 <= p.u2_max))
            return original(u1, u2, *args)

        monkeypatch.setattr(sircontrol.solvers, "integrate_state_forward", checking)
        report = solve_forward_backward(running_cost(p), p)
        assert report.converged
        assert passes == report.sweeps + 1

    def test_converged_controls_satisfy_clamp_law_within_tolerance(self, baseline_params, baseline_cost):
        report = solve_forward_backward(baseline_cost, baseline_params)
        traj = report.trajectory
        law1 = np.clip(-traj.psi1 * traj.s / (2.0 * baseline_cost.w1), 0.0, baseline_params.u1_max)
        law2 = np.clip(-traj.psi2 * traj.i / (2.0 * baseline_cost.w2), 0.0, baseline_params.u2_max)
        assert np.max(np.abs(traj.u1 - law1)) <= 1e-6
        assert np.max(np.abs(traj.u2 - law2)) <= 1e-6

    def test_honest_failure_after_max_iters(self, monkeypatch, baseline_params, baseline_cost):
        import sircontrol.solvers

        monkeypatch.setattr(sircontrol.solvers, "_FBS_MAX_SWEEPS", 2)
        report = solve_forward_backward(baseline_cost, baseline_params)
        assert not report.converged
        assert (report.sweeps, report.newton_iters) == (2, 0)


class TestControlGradient:
    def test_zero_everything_gives_zero_gradient(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        g1, g2 = control_gradient(np.zeros(4), np.zeros(4), cost, baseline_params)
        assert np.all(g1 == 0.0)
        assert np.all(g2 == 0.0)

    def test_matches_central_finite_differences(self, baseline_params, baseline_cost):
        rng = np.random.default_rng(42)
        m = 6
        u1 = rng.uniform(0.05, 0.85, m)
        u2 = rng.uniform(0.05, 0.85, m)
        g1, g2 = control_gradient(u1, u2, baseline_cost, baseline_params)
        bounds = interval_boundaries(baseline_params.n_steps, m)

        def objective(u1v, u2v):
            traj = integrate_state_forward(
                expand_piecewise_schedule(u1v, bounds, baseline_params.n_steps),
                expand_piecewise_schedule(u2v, bounds, baseline_params.n_steps),
                baseline_cost, baseline_params,
            )
            return float(traj.z[-1])

        step = 1e-4
        for j in range(m):
            for grad, pick in ((g1, 0), (g2, 1)):
                plus = [u1.copy(), u2.copy()]
                minus = [u1.copy(), u2.copy()]
                plus[pick][j] += step
                minus[pick][j] -= step
                fd = (objective(*plus) - objective(*minus)) / (2.0 * step)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-12) <= 1e-3

    def test_near_zero_on_interior_intervals_of_the_optimum(self, baseline_params, baseline_cost):
        report = solve_shooting(baseline_cost, baseline_params)
        traj = report.trajectory
        m = 20
        bounds = interval_boundaries(baseline_params.n_steps, m)
        u1 = np.array([traj.u1[bounds[j]:bounds[j + 1]].mean() for j in range(m)])
        u2 = np.array([traj.u2[bounds[j]:bounds[j + 1]].mean() for j in range(m)])
        g1, g2 = control_gradient(u1, u2, baseline_cost, baseline_params)
        margin = 1e-3
        checked = 0
        for j in range(m):
            seg1 = traj.u1[bounds[j]:bounds[j + 1] + 1]
            seg2 = traj.u2[bounds[j]:bounds[j + 1] + 1]
            if np.all(seg1 > margin) and np.all(seg1 < baseline_params.u1_max - margin):
                assert abs(g1[j]) <= 1e-2
                checked += 1
            if np.all(seg2 > margin) and np.all(seg2 < baseline_params.u2_max - margin):
                assert abs(g2[j]) <= 1e-2
                checked += 1
        assert checked >= 3

    def test_descent_step_from_projected_optimum_is_first_order_bounded(
        self, baseline_params, baseline_cost
    ):
        report = solve_shooting(baseline_cost, baseline_params)
        traj = report.trajectory
        m = 20
        bounds = interval_boundaries(baseline_params.n_steps, m)
        u1 = np.array([traj.u1[bounds[j]:bounds[j + 1]].mean() for j in range(m)])
        u2 = np.array([traj.u2[bounds[j]:bounds[j + 1]].mean() for j in range(m)])
        g1, g2 = control_gradient(u1, u2, baseline_cost, baseline_params)

        def objective(u1v, u2v):
            t = integrate_state_forward(
                expand_piecewise_schedule(u1v, bounds, baseline_params.n_steps),
                expand_piecewise_schedule(u2v, bounds, baseline_params.n_steps),
                baseline_cost, baseline_params,
            )
            return float(t.z[-1])

        step = 1e-3
        u1_next = np.clip(u1 - step * g1, 0.0, baseline_params.u1_max)
        u2_next = np.clip(u2 - step * g2, 0.0, baseline_params.u2_max)
        decrease = objective(u1, u2) - objective(u1_next, u2_next)
        first_order_bound = step * float(np.sum(g1**2) + np.sum(g2**2))
        assert decrease <= 1.5 * first_order_bound + 1e-12

    def test_shape_validation(self, baseline_params, baseline_cost):
        with pytest.raises(ValueError):
            control_gradient(np.zeros(3), np.zeros(4), baseline_cost, baseline_params)
