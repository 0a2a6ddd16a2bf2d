"""RK4 integration paths: order, conservation, coupled and backward passes."""

import math

import numpy as np
import pytest

from sircontrol import (
    NonFiniteError,
    RunningCost,
    Trajectory,
    evaluate_objective,
    evaluate_objective_trapezoid,
    integrate_adjoint_backward,
    integrate_coupled,
    integrate_state_forward,
    running_cost,
)

from conftest import make_baseline_params


def rk4_step(f, t, y, h):
    """One classical RK4 update y + (h/6)(k1 + 2k2 + 2k3 + k4).

    The reference stepper of the reflected-field test below.  Works on
    floats and numpy arrays alike; local error O(h^5) for smooth f.
    Raises NonFiniteError if the update produces NaN or infinity.
    """
    if not h > 0.0:
        raise ValueError("step size must be positive")
    k1 = f(t, y)
    k2 = f(t + h / 2.0, y + (h / 2.0) * k1)
    k3 = f(t + h / 2.0, y + (h / 2.0) * k2)
    k4 = f(t + h, y + h * k3)
    y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(y_new)):
        raise NonFiniteError(t + h)
    return y_new


def zeros_schedule(p):
    return np.zeros(p.n_steps + 1)


class TestRk4Step:
    def test_linear_decay_closed_form(self):
        # One step on y' = -y contracts by 1 - h + h^2/2 - h^3/6 + h^4/24.
        got = rk4_step(lambda t, y: -y, 0.0, 1.0, 0.1)
        assert got == pytest.approx(0.9048375, abs=1e-12)
        assert abs(got - math.exp(-0.1)) < 1e-7

    def test_zero_field_is_identity(self):
        y = np.array([1.0, -2.0, 3.5])
        got = rk4_step(lambda t, y: 0.0 * y, 0.3, y, 0.7)
        assert np.array_equal(got, y)

    def test_exact_for_constant_field(self):
        assert rk4_step(lambda t, y: 1.0, 0.0, 0.0, 0.5) == 0.5

    def test_exact_for_low_degree_polynomials(self):
        # y' = 4 t^3 integrates exactly: the rule has degree-4 accuracy.
        got = rk4_step(lambda t, y: 4.0 * t**3, 0.0, 0.0, 2.0)
        assert got == pytest.approx(16.0, rel=1e-14)

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteError):
            rk4_step(lambda t, y: float("inf"), 0.0, 1.0, 0.1)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, y: -y, 0.0, 1.0, 0.0)


def max_decay_error(n_steps: int) -> float:
    p = make_baseline_params(beta=0.0, alpha=0.2, i0=5.0, horizon=10.0, n_steps=n_steps)
    traj = integrate_state_forward(zeros_schedule(p), zeros_schedule(p), running_cost(p), p)
    return float(np.max(np.abs(traj.i - p.i0 * np.exp(-p.alpha * traj.t))))


class TestStateForward:
    def test_fourth_order_convergence_on_decay(self):
        ratio = max_decay_error(500) / max_decay_error(1000)
        assert 14.0 <= ratio <= 18.0

    def test_decay_matches_analytic_solution(self):
        p = make_baseline_params(beta=0.0)
        traj = integrate_state_forward(zeros_schedule(p), zeros_schedule(p), running_cost(p), p)
        assert np.array_equal(traj.s, np.full(p.n_steps + 1, p.s0))
        assert np.array_equal(traj.r, np.full(p.n_steps + 1, p.r0))
        assert traj.i[-1] == pytest.approx(p.i0 * math.exp(-p.alpha * p.horizon), rel=1e-10)
        assert traj.d[-1] == pytest.approx(p.i0 * (1.0 - math.exp(-p.alpha * p.horizon)), rel=1e-10)

    def test_infection_free_vaccination(self):
        p = make_baseline_params(i0=0.0)
        u1 = np.full(p.n_steps + 1, p.u1_max)
        traj = integrate_state_forward(u1, zeros_schedule(p), running_cost(p), p)
        assert np.all(traj.i == 0.0)
        assert traj.s[-1] == pytest.approx(p.s0 * math.exp(-p.u1_max * p.horizon), rel=1e-10)

    def test_conservation_under_random_schedules(self, baseline_params, baseline_cost):
        rng = np.random.default_rng(3)
        total0 = baseline_params.s0 + baseline_params.i0 + baseline_params.r0
        for _ in range(3):
            u1 = rng.uniform(0.0, baseline_params.u1_max, baseline_params.n_steps + 1)
            u2 = rng.uniform(0.0, baseline_params.u2_max, baseline_params.n_steps + 1)
            traj = integrate_state_forward(u1, u2, baseline_cost, baseline_params)
            drift = np.max(np.abs(traj.s + traj.i + traj.r + traj.d - total0)) / total0
            assert drift <= 1e-9

    def test_positivity_of_s_and_i(self, baseline_params, baseline_cost):
        u1 = np.full(baseline_params.n_steps + 1, baseline_params.u1_max)
        u2 = np.full(baseline_params.n_steps + 1, baseline_params.u2_max)
        traj = integrate_state_forward(u1, u2, baseline_cost, baseline_params)
        assert np.all(traj.s > 0.0)
        assert np.all(traj.i > 0.0)

    def test_cumulative_cost_non_decreasing_and_monotone_compartments(self, baseline_params, baseline_cost):
        rng = np.random.default_rng(5)
        u1 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
        u2 = rng.uniform(0.0, 0.9, baseline_params.n_steps + 1)
        traj = integrate_state_forward(u1, u2, baseline_cost, baseline_params)
        assert np.all(np.diff(traj.z) >= 0.0)
        assert np.all(np.diff(traj.d) >= 0.0)
        assert np.all(np.diff(traj.r) >= 0.0)
        assert np.all(np.diff(traj.s) <= 0.0)

    def test_schedule_length_is_validated(self, baseline_params, baseline_cost):
        with pytest.raises(ValueError, match="n_steps"):
            integrate_state_forward(np.zeros(10), np.zeros(10), baseline_cost, baseline_params)

    def test_nonfinite_blowup_reports_time(self, baseline_params, baseline_cost):
        # Inadmissibly negative vaccination grows S without bound.
        u1 = np.full(baseline_params.n_steps + 1, -1e8)
        with pytest.raises(NonFiniteError):
            integrate_state_forward(u1, zeros_schedule(baseline_params), baseline_cost, baseline_params)


class TestCoupled:
    def test_zero_costate_zero_source_reduces_to_uncontrolled_flow(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        coupled = integrate_coupled((0.0, 0.0), cost, baseline_params)
        assert np.all(coupled.psi1 == 0.0)
        assert np.all(coupled.psi2 == 0.0)
        assert np.all(coupled.u1 == 0.0)
        assert np.all(coupled.u2 == 0.0)
        assert coupled.z[-1] == 0.0
        free = integrate_state_forward(
            zeros_schedule(baseline_params), zeros_schedule(baseline_params), cost, baseline_params
        )
        assert np.array_equal(coupled.s, free.s)
        assert np.array_equal(coupled.i, free.i)
        assert np.array_equal(coupled.r, free.r)
        assert np.array_equal(coupled.d, free.d)

    def test_forced_zero_controls_give_analytic_decay(self):
        p = make_baseline_params(beta=0.0)
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        traj = integrate_coupled((0.0, 0.0), cost, p)
        assert traj.i[-1] == pytest.approx(p.i0 * math.exp(-p.alpha * p.horizon), rel=1e-10)

    def test_augmented_cost_equals_objective_bit_for_bit(self, baseline_params, baseline_cost):
        traj = integrate_coupled((0.0, 0.0), baseline_cost, baseline_params)
        assert evaluate_objective(traj) == traj.z[-1]

    def test_augmented_cost_agrees_with_trapezoid_at_second_order(self, baseline_params, baseline_cost):
        psi0 = (-0.05, -1.5)
        diffs = {}
        for n in (500, 2000):
            p = make_baseline_params(n_steps=n)
            traj = integrate_coupled(psi0, baseline_cost, p)
            za = evaluate_objective(traj)
            zt = evaluate_objective_trapezoid(traj, baseline_cost)
            diffs[n] = abs(za - zt) / abs(za)
        assert diffs[2000] <= 1e-5
        assert diffs[2000] < diffs[500]

    def test_divergent_costate_guess_raises_nonfinite(self, baseline_params, baseline_cost):
        with pytest.raises(NonFiniteError):
            integrate_coupled((-1e308, -1e308), baseline_cost, baseline_params)

    def test_conservation_along_coupled_run(self, baseline_params, baseline_cost):
        traj = integrate_coupled((-0.07, -1.9), baseline_cost, baseline_params)
        total0 = baseline_params.s0 + baseline_params.i0 + baseline_params.r0
        drift = np.max(np.abs(traj.s + traj.i + traj.r + traj.d - total0)) / total0
        assert drift <= 1e-9


class TestAdjointBackward:
    def test_zero_source_gives_zero_costates(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        traj = integrate_state_forward(
            zeros_schedule(baseline_params), zeros_schedule(baseline_params), cost, baseline_params
        )
        psi1, psi2 = integrate_adjoint_backward(traj, cost, baseline_params)
        assert np.all(psi1 == 0.0)
        assert np.all(psi2 == 0.0)

    def test_backward_pass_equals_forward_run_of_reflected_field(self):
        # On a frozen state the backward step is exactly a forward RK4 step
        # of the negated field, so the two paths agree to rounding.
        p = make_baseline_params(n_steps=50, horizon=2.0)
        cost = RunningCost(a_i=0.7, w1=1.0, w2=1.0)
        n = p.n_steps
        t = np.arange(n + 1) * (p.horizon / n)
        const = dict(
            t=t,
            s=np.full(n + 1, 2.0), i=np.full(n + 1, 3.0),
            r=np.zeros(n + 1), d=np.zeros(n + 1),
            z=np.zeros(n + 1), z_control=np.zeros(n + 1),
            u1=np.full(n + 1, 0.2), u2=np.full(n + 1, 0.1),
        )
        traj = Trajectory(**const)
        psi1, psi2 = integrate_adjoint_backward(traj, cost, p)

        beta_i = p.beta * 3.0
        beta_s = p.beta * 2.0

        def reflected(tau, y):
            p1, p2 = y
            d1 = p1 * beta_i + p1 * 0.2 - p2 * beta_i
            d2 = cost.a_i + p1 * beta_s - p2 * beta_s + p2 * 0.1 + p2 * p.alpha
            return np.array([-d1, -d2])

        y = np.zeros(2)
        h = p.horizon / n
        for k in range(n):
            y = rk4_step(reflected, k * h, y, h)
        assert psi1[0] == pytest.approx(y[0], rel=1e-13, abs=1e-15)
        assert psi2[0] == pytest.approx(y[1], rel=1e-13, abs=1e-15)

    def test_self_convergence_against_finer_grid(self, baseline_params, baseline_cost):
        def psi2_at_zero(n):
            p = make_baseline_params(n_steps=n)
            traj = integrate_state_forward(zeros_schedule(p), zeros_schedule(p), baseline_cost, p)
            return integrate_adjoint_backward(traj, baseline_cost, p)[1][0]

        coarse = psi2_at_zero(2000)
        fine = psi2_at_zero(20000)
        assert abs(coarse - fine) / abs(fine) <= 1e-6

    def test_requires_control_samples(self, baseline_params, baseline_cost):
        # A trajectory without controls cannot be built, so neither the
        # adjoint pass nor the objective ever sees one.
        from dataclasses import replace

        traj = integrate_state_forward(
            zeros_schedule(baseline_params), zeros_schedule(baseline_params), baseline_cost, baseline_params
        )
        for missing in ({"u1": None}, {"u2": None}, {"u1": None, "u2": None}):
            with pytest.raises(ValueError, match="control samples"):
                replace(traj, **missing)


class TestHamiltonianConstancy:
    def test_constant_along_coupled_extremal(self):
        from sircontrol import hamiltonian, solve_shooting

        p = make_baseline_params(n_steps=4000)
        cost = running_cost(p)
        report = solve_shooting(cost, p)
        assert report.converged
        traj = report.trajectory
        values = hamiltonian(
            traj.s, traj.i, traj.psi1, traj.psi2, traj.u1, traj.u2,
            p.beta, p.alpha, cost.a_i, cost.w1, cost.w2,
        )
        spread = (values.max() - values.min()) / (1.0 + abs(values.mean()))
        assert spread <= 1e-5
