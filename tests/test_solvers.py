"""Shooting and forward-backward solvers, adjoint gradient, cross-checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sircontrol import (
    NonFiniteError,
    RunningCost,
    control_gradient,
    expand_piecewise_schedule,
    integrate_coupled,
    integrate_state_forward,
    interval_boundaries,
    optimal_controls,
    running_cost,
    shooting_residual,
    solve_forward_backward,
    solve_shooting,
    sweep_alpha,
)

from conftest import box_draws, dual_terminal_costates, make_baseline_params
from fixtures import reference_values

# Draws of conftest.box_draws() that test_long_horizons_converge_in_few_newton_steps solves.
_LONG_BOX_DRAWS = (15, 23, 25, 36, 44, 71, 73, 90)


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
        "max_newton_iters, newton_iters, coupled", [(50, 2, 3), (1, 1, 2)]
    )
    def test_report_counts_the_seed_and_newton_work(
        self, monkeypatch, max_newton_iters, newton_iters, coupled
    ):
        # On 200 steps the seed sweep runs on the problem's own grid, one
        # state pass per sweep.  Newton makes one coupled pass from the
        # seed and one per step; one step does not converge.
        import sircontrol.solvers

        p = make_baseline_params(n_steps=200)
        monkeypatch.setattr(sircontrol.solvers, "_MAX_NEWTON_ITERS", max_newton_iters)
        coupled_passes = _coupled_passes_by_grid(monkeypatch)
        state_passes = _state_passes_by_grid(monkeypatch)
        report = solve_shooting(running_cost(p), p)
        assert report.converged == (max_newton_iters == 50)
        assert report.newton_iters == newton_iters
        assert coupled_passes == {200: coupled}
        assert state_passes == {200: 14}
        assert report.sweeps == 14

    def test_a_step_that_does_not_lower_the_residual_ends_the_solve(self, monkeypatch):
        # A Jacobian of the wrong sign sends the first step uphill, so it
        # raises the residual norm: the solve stops after that one trial
        # pass (seed pass, trial) instead of trying another step.
        import sircontrol.solvers

        exact = sircontrol.solvers.coupled_jacobian

        def negated(traj, cost, p):
            return tuple(-x for x in exact(traj, cost, p))

        monkeypatch.setattr(sircontrol.solvers, "coupled_jacobian", negated)
        passes = _coupled_passes_by_grid(monkeypatch)
        p = make_baseline_params(n_steps=200)
        report = solve_shooting(running_cost(p), p)
        assert not report.converged
        assert report.newton_iters == 1
        assert passes == {200: 2}

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
    # parameter box.  The box cases are draws 15, 23, 25, 36, 44, 71, 73
    # and 90 of conftest.box_draws(), under the legacy functional.  Each
    # of 15-73 failed after one full step when the seed sweep stopped at
    # 1e-3; 36, 44 and 90 failed at 2000 steps (residual norms 6.6, 1.9
    # and 1.5) while shooting took its seed from a sweep that held each
    # control constant over a step.
    @pytest.mark.parametrize(
        "p",
        [
            make_baseline_params(beta=0.009661, alpha=0.1655, c1=1.0013, c2=1.1949, c3=9.8664,
                                 horizon=15.92),
            make_baseline_params(beta=0.007060, alpha=0.1491, c1=0.9260, c2=0.7781, c3=14.419,
                                 horizon=17.45),
            make_baseline_params(horizon=18.0),
            make_baseline_params(horizon=18.0, functional="legacy"),
            *(replace(box_draws()[k], functional="legacy") for k in _LONG_BOX_DRAWS),
        ],
        ids=["box-T15.92", "box-T17.45", "T18", "legacy-T18", *(f"box{k}" for k in _LONG_BOX_DRAWS)],
    )
    def test_long_horizons_converge_in_few_newton_steps(self, monkeypatch, p):
        cost = running_cost(p)
        passes = _coupled_passes_by_grid(monkeypatch)
        shoot = solve_shooting(cost, p)
        sweep = solve_forward_backward(cost, p)
        assert shoot.converged and sweep.converged
        assert shoot.newton_iters <= 3
        # One pass from the seed and one per step, all on the problem's grid.
        assert passes == {2000: 1 + shoot.newton_iters}
        assert abs(shoot.objective - sweep.objective) / abs(sweep.objective) <= 1e-5

    # On coarse grids these failed after one Newton step while the seed
    # sweep held each control constant over a step.  The gaps to the sweep
    # also pin its order: that sweep lay 4e-5 to 1.6e-4 from shooting here.
    @pytest.mark.parametrize("alpha, n_steps", [(0.05, 100), (0.05, 200), (0.3, 140)])
    def test_coarse_grids_converge_and_agree_with_the_sweep(self, alpha, n_steps):
        p = make_baseline_params(alpha=alpha, n_steps=n_steps, functional="legacy")
        cost = running_cost(p)
        shoot = solve_shooting(cost, p)
        sweep = solve_forward_backward(cost, p)
        assert shoot.converged and sweep.converged
        assert abs(shoot.objective - sweep.objective) / abs(sweep.objective) <= 1e-5

    # On 20 steps chord steps (a forward-difference Jacobian kept from
    # the start) crawled: 10-17 steps, or all 50 unconverged without a
    # refresh.  Exact Newton takes 5 on each.  The two discretizations
    # differ at O(h^2) with h = 0.5: the gaps to the sweep measured 9.5e-5
    # to 1.9e-4.
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.15, 0.2, 0.3])
    def test_twenty_step_grids_converge_in_few_newton_steps(self, alpha):
        p = make_baseline_params(alpha=alpha, n_steps=20, functional="legacy")
        cost = running_cost(p)
        shoot = solve_shooting(cost, p)
        sweep = solve_forward_backward(cost, p)
        assert shoot.converged and sweep.converged
        assert shoot.newton_iters <= 5
        assert abs(shoot.objective - sweep.objective) / abs(sweep.objective) <= 1e-3


def _coupled_passes_by_grid(monkeypatch) -> dict[int, int]:
    """Count the solvers' coupled passes per grid size from here on."""
    import sircontrol.solvers

    passes: dict[int, int] = {}
    original = sircontrol.solvers.integrate_coupled

    def counting(psi0, cost, p):
        passes[p.n_steps] = passes.get(p.n_steps, 0) + 1
        return original(psi0, cost, p)

    monkeypatch.setattr(sircontrol.solvers, "integrate_coupled", counting)
    return passes


def _state_passes_by_grid(monkeypatch) -> dict[int, int]:
    """Count the solvers' state passes per grid size from here on, the
    grids in the order of their first pass."""
    import sircontrol.solvers

    passes: dict[int, int] = {}
    original = sircontrol.solvers.integrate_state_forward

    def counting(u1, u2, cost, p, **kwargs):
        passes[p.n_steps] = passes.get(p.n_steps, 0) + 1
        return original(u1, u2, cost, p, **kwargs)

    monkeypatch.setattr(sircontrol.solvers, "integrate_state_forward", counting)
    return passes


class TestChordNewton:
    """Shooting's Newton steps.  They were chord steps, reusing one
    forward-difference Jacobian; the class and its first test keep that
    name so that the test ids the suite reports stay stable."""

    def test_each_chord_step_spends_one_pass_on_the_problem_grid(
        self, monkeypatch, baseline_params, baseline_cost
    ):
        passes = _coupled_passes_by_grid(monkeypatch)
        report = solve_shooting(baseline_cost, baseline_params)
        assert report.converged
        # The seed sweep on 500 steps; one pass from the seed and one per
        # step on 2000.
        assert (report.sweeps, report.newton_iters) == (15, 2)
        assert passes == {2000: 3}
        assert report.objective == pytest.approx(reference_values.SHOOTING_OBJECTIVE, rel=1e-12)

    def test_a_stiff_solve_converges(self):
        # Outside the declared box (beta 50x the baseline, alpha 10x,
        # both controls capped at 5), ||J|| reaches 2e6.  Newton converges
        # in 6 steps, 6.2e-7 from the sweep.  With a forward-difference
        # Jacobian from the 500-step seed grid the first step raised the
        # residual, and only a retry with a fresh one converged, in 17.
        p = make_baseline_params(beta=0.5, alpha=1.0, u1_max=5.0, u2_max=5.0, functional="legacy")
        cost = running_cost(p)
        report = solve_shooting(cost, p)
        assert report.converged
        assert report.newton_iters <= 8
        sweep = solve_forward_backward(cost, p)
        assert abs(report.objective - sweep.objective) / abs(sweep.objective) <= 1e-5

    def test_the_stiff_solve_converges_from_rounding_level_moves_of_its_start(self, monkeypatch):
        # The stiff solve above ends near its residual floor, eps * ||J||
        # * |psi(0)|.  With plain costate sums in the coupled pass, moving
        # its start by 1e-12 (relative) left it unconverged on 13 of 30
        # draws; compensated sums converge from all of them in 6 steps.
        import sircontrol.solvers

        p = make_baseline_params(beta=0.5, alpha=1.0, u1_max=5.0, u2_max=5.0, functional="legacy")
        cost = running_cost(p)
        original = sircontrol.solvers.integrate_coupled
        unconverged = []
        for move in np.random.default_rng(0).normal(size=(10, 2)) * 1e-12:
            calls = 0

            def moved_start(psi0, cost, p, move=move):
                nonlocal calls
                calls += 1
                if calls == 1:
                    psi0 = (psi0[0] * (1.0 + move[0]), psi0[1] * (1.0 + move[1]))
                return original(psi0, cost, p)

            monkeypatch.setattr(sircontrol.solvers, "integrate_coupled", moved_start)
            report = solve_shooting(cost, p)
            if not (report.converged and report.newton_iters <= 8):
                unconverged.append((tuple(move), report.newton_iters, report.residual_norm))
        assert unconverged == []

    # Five configurations of the stiff panel (beta, horizon, alpha,
    # functional, steps and both control caps) that ended unconverged
    # just above residual_tol = 1e-10, at 1.05e-10 to 2.39e-10, while the
    # coupled pass summed its costates plainly.  With compensated sums
    # they reach 3.9e-13 to 4.0e-11.
    @pytest.mark.parametrize(
        "beta, horizon, alpha, functional, n_steps, u_max",
        [
            (0.3, 10.0, 1.0, "legacy", 1000, 5.0),
            (0.5, 0.5, 0.1, "new", 2000, 0.9),
            (0.5, 5.0, 1.0, "new", 1000, 5.0),
            (1.0, 0.5, 1.0, "new", 1000, 5.0),
            (1.0, 0.5, 1.0, "legacy", 1000, 5.0),
        ],
    )
    def test_solves_near_the_residual_floor_converge(self, beta, horizon, alpha, functional, n_steps, u_max):
        p = make_baseline_params(
            beta=beta, horizon=horizon, alpha=alpha, functional=functional, n_steps=n_steps,
            u1_max=u_max, u2_max=u_max,
        )
        report = solve_shooting(running_cost(p), p)
        assert report.converged
        assert report.residual_norm <= 1e-10

    # The Jacobian is the exact derivative of the coupled RK4 pass: a
    # dual-number run of the model's kernels agrees with it to 6e-15
    # (measured, relative to its largest entry), at the root and away
    # from it.  Central differences are no check: the clamp law's kinks
    # leave them 1e-3 off even at the baseline.
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(horizon=18.0, functional="legacy"),
            dict(n_steps=200),
            dict(beta=0.5, alpha=1.0, u1_max=5.0, u2_max=5.0, functional="legacy"),
        ],
        ids=["baseline", "legacy-T18", "n200", "stiff"],
    )
    def test_the_jacobian_is_the_derivative_of_the_pass(self, overrides):
        import sircontrol.integrate

        p = make_baseline_params(**overrides)
        cost = running_cost(p)
        root = solve_shooting(cost, p).trajectory
        for offset in ((0.0, 0.0), (0.01, -0.05)):
            psi0 = (float(root.psi1[0]) + offset[0], float(root.psi2[0]) + offset[1])
            traj = integrate_coupled(psi0, cost, p)
            ref1, ref2 = dual_terminal_costates(psi0, cost, p)
            assert (ref1.x, ref2.x) == (traj.psi1[-1], traj.psi2[-1])
            ref = np.array([ref1.d1, ref1.d2, ref2.d1, ref2.d2])
            jac = np.array(sircontrol.integrate.coupled_jacobian(traj, cost, p))
            assert np.max(np.abs(jac - ref)) <= 1e-13 * np.max(np.abs(ref))

    # Far outside the declared box the pass from the seed stays finite
    # but huge (residuals 9.5e163 and 1.9e249 here).  At beta 10 its
    # derivative overflows to nan, which ends the solve before any step;
    # at beta 2 it reaches 1.6e253, and the step it gives raises the
    # residual, which ends the solve after that step.  Either way no
    # numpy warning escapes.
    @pytest.mark.parametrize(
        "overrides, newton_iters",
        [
            (dict(beta=10.0, horizon=0.5, functional="legacy"), 0),
            (dict(beta=2.0, horizon=5.0), 1),
        ],
        ids=["nan-jacobian", "uphill-step"],
    )
    def test_an_overflowing_solve_ends_quietly(self, overrides, newton_iters):
        import warnings

        p = make_baseline_params(n_steps=600, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_shooting(running_cost(p), p)
        assert not report.converged
        assert report.newton_iters == newton_iters

    # At beta 3 the legacy pass from the seed stays finite, but a Newton
    # step's trial pass overflows: at t = 3.475 on the second step with
    # both controls up to 0.9, at t = 4.2333 on the first with both up to
    # 5.  The solve ends unconverged on its last finite pass, quietly.
    @pytest.mark.parametrize("u_max, newton_iters, sweeps, diverged_at", [(0.9, 2, 11, 3.475), (5.0, 1, 17, 4.2333)])
    def test_a_step_whose_trial_pass_diverges_ends_the_solve(self, monkeypatch, u_max, newton_iters, sweeps,
                                                              diverged_at):
        import warnings

        import sircontrol.solvers

        exact = sircontrol.solvers.integrate_coupled
        raised = []

        def recording(*args):
            try:
                return exact(*args)
            except NonFiniteError as err:
                raised.append(err.time)
                raise

        monkeypatch.setattr(sircontrol.solvers, "integrate_coupled", recording)
        p = make_baseline_params(beta=3.0, horizon=5.0, functional="legacy", n_steps=600, u1_max=u_max,
                                 u2_max=u_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_shooting(running_cost(p), p)
        assert not report.converged
        assert (report.newton_iters, report.sweeps) == (newton_iters, sweeps)
        assert raised == [pytest.approx(diverged_at, abs=1e-4)]

    @pytest.mark.parametrize("functional", ["new", "legacy"])
    def test_a_seed_that_diverges_on_500_steps_ends_the_solve(self, monkeypatch, functional):
        # At beta 5 the seed sweep's first state pass, the uncontrolled
        # run, blows up at t = 0.08 on the 500-step seed grid.  The solve
        # raises there; it neither retries the seed on the problem's
        # 2000 steps nor makes any coupled pass.
        p = make_baseline_params(beta=5.0, functional=functional)
        state_passes = _state_passes_by_grid(monkeypatch)
        passes = _coupled_passes_by_grid(monkeypatch)
        with pytest.raises(NonFiniteError, match=r"\(shooting start diverged\)") as err:
            solve_shooting(running_cost(p), p)
        assert err.value.time == 0.08
        assert passes == {}
        assert list(state_passes) == [500]

    @pytest.mark.parametrize("n_steps", [200, 500, 800, 1999])
    def test_the_seed_grid_has_at_most_500_steps(self, monkeypatch, n_steps):
        p = make_baseline_params(n_steps=n_steps)
        sweeps = _state_passes_by_grid(monkeypatch)
        passes = _coupled_passes_by_grid(monkeypatch)
        report = solve_shooting(running_cost(p), p)
        assert report.converged
        assert sweeps == {min(n_steps, 500): report.sweeps}
        assert passes == {n_steps: 1 + report.newton_iters}


class TestEachSolveRunsItsSeed:
    """Shooting and the forward-backward sweep each run their own seed
    sweep, so a report does not depend on the solves before it."""

    def test_the_sweep_after_shooting_equals_the_sweep_alone(self, monkeypatch, baseline_params, baseline_cost):
        alone = solve_forward_backward(baseline_cost, baseline_params)
        passes = _state_passes_by_grid(monkeypatch)
        shoot = solve_shooting(baseline_cost, baseline_params)
        after = solve_forward_backward(running_cost(baseline_params), baseline_params)
        # Both solves run the seed's 15 sweeps on 500 steps.
        assert passes == {500: 30, 2000: 11}
        assert (shoot.sweeps, after.sweeps) == (15, 26)
        assert (after.sweeps, after.objective, after.converged) == (
            alone.sweeps, alone.objective, alone.converged)
        for name, arr in vars(alone.trajectory).items():
            assert np.array_equal(getattr(after.trajectory, name), arr), name

    @pytest.mark.parametrize("functional", ["new", "legacy"])
    def test_a_diverging_seed_raises_on_every_solve(self, monkeypatch, functional):
        # At beta 5 the seed's first state pass diverges on 500 steps;
        # every solve runs it again and raises again.
        p = make_baseline_params(beta=5.0, functional=functional)
        passes = _state_passes_by_grid(monkeypatch)
        for _ in range(2):
            with pytest.raises(NonFiniteError, match=r"\(shooting start diverged\)"):
                solve_shooting(running_cost(p), p)
        assert passes == {500: 2}


class TestSolveForwardBackward:
    # Zero controls are the fixed point here: one sweep on each grid.
    def test_zero_state_weight_converges_immediately(self, monkeypatch):
        p = make_baseline_params(alpha=0.0)
        passes = _state_passes_by_grid(monkeypatch)
        report = solve_forward_backward(running_cost(p), p)
        assert report.converged
        assert passes == {500: 1, 2000: 1}
        assert (report.sweeps, report.newton_iters) == (2, 0)
        assert report.objective == 0.0
        assert np.all(report.trajectory.u1 == 0.0)

    def test_degenerate_control_box(self, monkeypatch, baseline_cost):
        p = make_baseline_params(u1_max=0.0, u2_max=0.0)
        passes = _state_passes_by_grid(monkeypatch)
        report = solve_forward_backward(baseline_cost, p)
        assert report.converged
        assert passes == {500: 1, 2000: 1}
        assert (report.sweeps, report.newton_iters) == (2, 0)
        assert np.all(report.trajectory.u1 == 0.0)

    # The sweep on the problem's grid starts from the 500-step seed's
    # schedule, so it is the seed's sweeps plus the fine grid's.  Grids of
    # at most 500 steps are their own seed grid and sweep from zero
    # controls once.  At beta 5 the seed's first state pass, the
    # uncontrolled run, diverges on 500 steps at t = 0.08; the
    # 2000-step sweep then starts from zero controls and converges.
    # Without the seed start, the 2000-step sweep takes 19 on the baseline.
    @pytest.mark.parametrize(
        "overrides, passes_by_grid, sweeps",
        [
            ({}, [(500, 15), (2000, 11)], 26),
            ({"n_steps": 200}, [(200, 18)], 18),
            ({"n_steps": 500}, [(500, 19)], 19),
            ({"beta": 5.0}, [(500, 1), (2000, 17)], 17),
            ({"beta": 5.0, "functional": "legacy"}, [(500, 1), (2000, 17)], 17),
        ],
        ids=["baseline", "n200", "n500", "beta5-new", "beta5-legacy"],
    )
    def test_the_sweep_starts_from_the_seed_grid(
        self, monkeypatch, overrides, passes_by_grid, sweeps
    ):
        p = make_baseline_params(**overrides)
        passes = _state_passes_by_grid(monkeypatch)
        report = solve_forward_backward(running_cost(p), p)
        assert report.converged
        assert list(passes.items()) == passes_by_grid
        assert report.sweeps == sweeps

    # Anderson mixing takes 25-30 sweeps on each scenario here: 15-17 on
    # the 500-step seed grid and 10-13 on 2000 steps from its schedule.  A
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
        # 4e-5 without the clip); every schedule that drives a state pass
        # must be clipped back into it.  At 2000 steps that includes the
        # start interpolated from the 500-step seed (11 + 6 passes).
        import sircontrol.solvers

        box = {"u1_max": 0.5, "u2_max": 0.3}
        original = sircontrol.solvers.integrate_state_forward
        passes = 0

        def checking(u1, u2, *args, **kwargs):
            nonlocal passes
            passes += 1
            assert np.all((u1 >= 0.0) & (u1 <= box["u1_max"]))
            assert np.all((u2 >= 0.0) & (u2 <= box["u2_max"]))
            return original(u1, u2, *args, **kwargs)

        monkeypatch.setattr(sircontrol.solvers, "integrate_state_forward", checking)
        for n_steps in (200, 2000):
            passes = 0
            p = make_baseline_params(n_steps=n_steps, **box)
            report = solve_forward_backward(running_cost(p), p)
            assert report.converged
            assert passes == report.sweeps

    @pytest.mark.parametrize(
        "overrides", [{}, {"functional": "legacy", "alpha": 0.15}], ids=["new", "legacy-alpha0.15"]
    )
    def test_converged_controls_satisfy_clamp_law_within_tolerance(self, overrides):
        # The reported trajectory is the pass the stopping rule accepted:
        # its controls u and the clamp law Phi(u) on its state and
        # costates meet that rule, in its own form.
        p = make_baseline_params(**overrides)
        cost = running_cost(p)
        report = solve_forward_backward(cost, p)
        traj = report.trajectory
        law1 = np.clip(-traj.psi1 * traj.s / (2.0 * cost.w1), 0.0, p.u1_max)
        law2 = np.clip(-traj.psi2 * traj.i / (2.0 * cost.w2), 0.0, p.u2_max)
        u, law = np.concatenate((traj.u1, traj.u2)), np.concatenate((law1, law2))
        assert np.max(np.abs(u - law)) / (1.0 + np.max(law)) <= 2e-9

    # Outside the declared box: beta 50 and 500 times the baseline's.
    # State passes per grid: at beta 0.5, 13 on 500 steps and 13 (new)
    # or 11 (legacy) on 2000; at beta 5 the seed diverges on its first
    # pass and the sweep from zero controls takes 17 on 2000 steps.
    # Nothing is asserted about shooting here, which does not converge
    # at these betas (its seed grid diverges at beta 5).
    @pytest.mark.parametrize("functional", ["new", "legacy"])
    @pytest.mark.parametrize("beta", [0.5, 5.0])
    def test_converges_at_large_beta(self, monkeypatch, beta, functional):
        p = make_baseline_params(beta=beta, functional=functional)
        passes = _state_passes_by_grid(monkeypatch)
        report = solve_forward_backward(running_cost(p), p)
        assert report.converged
        assert max(passes.values()) <= 20
        assert math.isfinite(report.objective)

    def test_honest_failure_after_max_iters(self, monkeypatch, baseline_params, baseline_cost):
        # The cap holds on each grid: the seed stops unconverged after
        # two sweeps and the sweep on 2000 steps starts from it anyway.
        import sircontrol.solvers

        monkeypatch.setattr(sircontrol.solvers, "_FBS_MAX_SWEEPS", 2)
        passes = _state_passes_by_grid(monkeypatch)
        report = solve_forward_backward(baseline_cost, baseline_params)
        assert not report.converged
        assert passes == {500: 2, 2000: 2}
        assert (report.sweeps, report.newton_iters) == (4, 0)


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

        def objective(u1v, u2v):
            traj = integrate_state_forward(
                expand_piecewise_schedule(u1v, baseline_params.n_steps),
                expand_piecewise_schedule(u2v, baseline_params.n_steps),
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

    # control_gradient is the exact derivative of the state pass's z[-1],
    # so it meets fourth-order central differences (h = 1e-5) at their
    # own rounding, about eps*J/h relative.  Worst relative errors
    # measured (new, legacy), each bound with its margin over the larger:
    # m = 6 at 2000 steps 5.6e-9 and 8.8e-9, bound 1e-7 (11x); every step
    # its own interval, 20 of 20 steps, 4.2e-8 and 1.5e-7, bound 1e-6
    # (7x); one interval, at 20 and 2000 steps, at most 9.4e-10, bound
    # 1e-8 (10x).  A trapezoid of psi*S and psi*I along a costate pass,
    # the continuous formula discretized, misses by 4.7e-6 at m = 6, by
    # 2.3 at m = 20 on 20 steps and by 8.1e-6 at m = 1.
    @pytest.mark.parametrize("functional", ["new", "legacy"])
    @pytest.mark.parametrize("n_steps, m, bound", [(2000, 6, 1e-7), (20, 20, 1e-6), (20, 1, 1e-8), (2000, 1, 1e-8)],
                             ids=["6-of-2000", "20-of-20", "1-of-20", "1-of-2000"])
    def test_is_the_derivative_of_the_state_pass(self, functional, n_steps, m, bound):
        p = make_baseline_params(n_steps=n_steps, functional=functional)
        cost = running_cost(p)
        rng = np.random.default_rng(42)
        levels = np.array([rng.uniform(0.05, 0.85, m), rng.uniform(0.05, 0.85, m)])
        grads = control_gradient(*levels, cost, p)

        def objective(shift):
            u1, u2 = (expand_piecewise_schedule(v, n_steps) for v in levels + shift)
            return float(integrate_state_forward(u1, u2, cost, p).z[-1])

        step = 1e-5
        for pick, grad in enumerate(grads):
            for j in range(m):
                e = np.zeros_like(levels)
                e[pick, j] = step
                fd = (8.0 * (objective(e) - objective(-e)) - objective(2.0 * e) + objective(-2.0 * e)) / (12.0 * step)
                assert abs(grad[j] - fd) <= bound * abs(fd)

    def test_a_diverging_state_pass_raises_at_its_time(self):
        # At beta 5 on 20 steps the uncontrolled state overflows by t = 1;
        # the gradient raises there, as the pass does, and warns nothing.
        p = make_baseline_params(beta=5.0, n_steps=20)
        cost = running_cost(p)
        times = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: control_gradient(np.zeros(2), np.zeros(2), cost, p),
                        lambda: integrate_state_forward(np.zeros(21), np.zeros(21), cost, p)):
                with pytest.raises(NonFiniteError) as err:
                    run()
                times.append(err.value.time)
        assert times == [1.0, 1.0]

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
                expand_piecewise_schedule(u1v, baseline_params.n_steps),
                expand_piecewise_schedule(u2v, baseline_params.n_steps),
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
