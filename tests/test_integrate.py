"""RK4 integration paths: order, conservation, coupled and backward passes."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sircontrol import (
    NonFiniteError,
    RunningCost,
    Trajectory,
    expand_piecewise_schedule,
    integrate_adjoint_backward,
    integrate_coupled,
    integrate_state_forward,
    interval_boundaries,
    running_cost,
)

from conftest import (
    adjoint_backward_reference,
    coupled_reference,
    evaluate_objective_trapezoid,
    make_baseline_params,
    state_forward_reference,
)


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
    p = make_baseline_params(beta=0.0, alpha=0.2, n_steps=n_steps)
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

    def test_augmented_cost_agrees_with_trapezoid_at_second_order(self, baseline_params, baseline_cost):
        psi0 = (-0.05, -1.5)
        diffs = {}
        for n in (500, 2000):
            p = make_baseline_params(n_steps=n)
            traj = integrate_coupled(psi0, baseline_cost, p)
            za = float(traj.z[-1])
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

    def test_every_field_needs_one_sample_per_node(self, baseline_params, baseline_cost):
        traj = integrate_state_forward(
            zeros_schedule(baseline_params), zeros_schedule(baseline_params), baseline_cost, baseline_params
        )
        with pytest.raises(ValueError, match="field i has 2000 samples, expected 2001"):
            replace(traj, i=traj.i[:-1])

    def test_requires_a_trajectory_on_its_grid(self, baseline_params, baseline_cost):
        coarse = make_baseline_params(n_steps=200)
        traj = integrate_state_forward(zeros_schedule(coarse), zeros_schedule(coarse), baseline_cost, coarse)
        with pytest.raises(ValueError, match="trajectory has 200 steps, params expect 2000"):
            integrate_adjoint_backward(traj, baseline_cost, baseline_params)


class TestPiecewiseSchedules:
    @pytest.mark.parametrize("n_intervals", [0, 201])
    def test_interval_counts_lie_between_one_and_the_steps(self, n_intervals):
        with pytest.raises(ValueError, match="1 <= n_intervals <= n_steps"):
            interval_boundaries(200, n_intervals)

    @pytest.mark.parametrize("m", [1, 3, 7, 200])
    def test_node_k_takes_the_level_of_the_interval_owning_step_k(self, m):
        levels = np.random.default_rng(m).uniform(0.0, 0.9, m)
        schedule = expand_piecewise_schedule(levels, 200)
        bounds = interval_boundaries(200, m)
        assert schedule.shape == (201,)
        for j in range(m):
            assert np.all(schedule[bounds[j]:bounds[j + 1]] == levels[j])
        assert schedule[200] == levels[-1]

    @pytest.mark.parametrize("n_levels", [0, 201])
    def test_a_schedule_takes_one_to_n_steps_levels(self, n_levels):
        with pytest.raises(ValueError, match="1 <= n_intervals <= n_steps"):
            expand_piecewise_schedule(np.full(n_levels, 0.5), 200)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3)])
    def test_levels_are_one_dimensional(self, shape):
        with pytest.raises(ValueError):
            expand_piecewise_schedule(np.full(shape, 0.5), 200)


class TestRk4StepMaps:
    """integrate._rk4_step_maps chains a linear field's four RK4 stages
    into each step's matrix; the costate pass and coupled_jacobian both
    build on it."""

    # For a constant field the RK4 step is the degree-4 Taylor polynomial
    # of exp(hA).  Measured within 2 ulps of each lane's largest entry
    # over 50 draws like these; the bound is 4 ulps.
    @pytest.mark.parametrize("h", [0.25, -0.25], ids=["forward", "backward"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_a_constant_field_steps_by_its_taylor_polynomial(self, d, h):
        from sircontrol.integrate import _rk4_step_maps

        a = np.random.default_rng(d).uniform(-1.0, 1.0, (d, d, 500))
        got = _rk4_step_maps(a, a, a, a, h)
        ha = np.moveaxis(h * a, 2, 0)
        ha2 = ha @ ha
        ha3 = ha2 @ ha
        ref = np.moveaxis(np.eye(d) + ha + ha2 / 2.0 + ha3 / 6.0 + ha3 @ ha / 24.0, 0, 2)
        err = np.max(np.abs(got - ref), axis=(0, 1)) / np.max(np.abs(ref), axis=(0, 1))
        assert np.max(err) <= 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("h", [0.25, -0.25], ids=["forward", "backward"])
    def test_an_affine_field_keeps_its_homogeneous_row(self, h):
        from sircontrol.integrate import _rk4_step_maps

        rng = np.random.default_rng(3)
        fields = [rng.uniform(-1.0, 1.0, (3, 3, 500)) for _ in range(4)]
        for a in fields:
            a[2] = 0.0
        got = _rk4_step_maps(*fields, h)
        assert np.array_equal(got[2], np.broadcast_to(np.array([[0.0], [0.0], [1.0]]), (3, 500)))


class TestAffineStepMaps:
    """integrate_adjoint_backward builds its RK4 steps as affine maps on
    numpy lanes; conftest's adjoint_backward_reference is the scalar loop
    of four adjoint_rhs calls per step that it replaced.  Both read the
    controls linearly, along a state pass that reads them so too."""

    @pytest.mark.parametrize("linear", [True], ids=["linear"])
    @pytest.mark.parametrize("n_steps", [200, 500, 2000])
    def test_the_pass_agrees_with_the_scalar_loop(self, n_steps, linear):
        # Only the order of the rounding differs; measured within 4e-15.
        rng = np.random.default_rng(n_steps)
        for functional in ("new", "legacy"):
            p = make_baseline_params(n_steps=n_steps, functional=functional)
            cost = running_cost(p)
            traj = integrate_state_forward(
                rng.uniform(0.0, p.u1_max, n_steps + 1), rng.uniform(0.0, p.u2_max, n_steps + 1),
                cost, p, linear=linear,
            )
            for got, ref in zip(
                integrate_adjoint_backward(traj, cost, p),
                adjoint_backward_reference(traj, cost, p),
            ):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    # A sample large enough to overflow the field makes every later
    # costate non-finite.  The loop and the pass both meet it at the step
    # whose left end it is, and raise there.
    @pytest.mark.parametrize("linear", [True], ids=["linear"])
    @pytest.mark.parametrize("node", [0, 37, 199, 200])
    def test_costates_that_diverge_raise_where_the_loop_does(self, node, linear):
        import warnings
        from dataclasses import replace

        p = make_baseline_params(n_steps=200)
        cost = running_cost(p)
        rng = np.random.default_rng(node)
        traj = integrate_state_forward(rng.uniform(0.0, 0.9, 201), rng.uniform(0.0, 0.9, 201), cost, p, linear=linear)
        s = traj.s.copy()
        s[node] = 1e200
        traj = replace(traj, s=s)
        times = []
        for integrate in (integrate_adjoint_backward, adjoint_backward_reference):
            with warnings.catch_warnings(), pytest.raises(NonFiniteError) as err:
                warnings.simplefilter("error")
                integrate(traj, cost, p)
            times.append(err.value.time)
        assert times[0] == times[1] == min(node, 199) * (p.horizon / 200)

    def test_costates_that_overflow_raise_a_few_steps_after_the_loop(self):
        # Infection-free at beta 1, psi2 grows backward like exp(beta*S*t)
        # = exp(95 t) and overflows.  The loop raises as soon as a stage
        # slope A psi overflows, while the pass carries on until psi
        # itself does: 13 steps (0.065) later, since |A| is about 95 and
        # one step multiplies psi by about 1.6.
        p = make_baseline_params(beta=1.0, i0=0.0)
        cost = running_cost(p)
        zeros = zeros_schedule(p)
        traj = integrate_state_forward(zeros, zeros, cost, p)
        times = []
        for integrate in (integrate_adjoint_backward, adjoint_backward_reference):
            with pytest.raises(NonFiniteError) as err:
                integrate(traj, cost, p)
            times.append(err.value.time)
        assert times[1] - 0.1 <= times[0] < times[1]


TRAJECTORY_FIELDS = ("t", "s", "i", "r", "d", "z", "z_control", "u1", "u2", "psi1", "psi2")


class TestStageQuadratures:
    """The forward passes step only S and I, and the costates in the
    coupled pass, and integrate R, D, z and z_control after the loop from
    each step's RK4 stage points, which both rebuild from their nodes.
    conftest's state_forward_reference and coupled_reference are the
    loops that stepped all of them together and checked z after every
    step."""

    @staticmethod
    def assert_same(got, ref):
        for name in TRAJECTORY_FIELDS:
            a, b = getattr(got, name), getattr(ref, name)
            assert (a is None and b is None) or np.array_equal(a, b), name

    @pytest.mark.parametrize("linear", [False, True], ids=["held", "linear"])
    @pytest.mark.parametrize("n_steps", [200, 500, 2000])
    def test_the_state_pass_equals_the_loop_bit_for_bit(self, n_steps, linear):
        rng = np.random.default_rng(n_steps + 1)
        for functional in ("new", "legacy"):
            p = make_baseline_params(n_steps=n_steps, functional=functional)
            cost = running_cost(p)
            u1, u2 = rng.uniform(0.0, p.u1_max, n_steps + 1), rng.uniform(0.0, p.u2_max, n_steps + 1)
            self.assert_same(integrate_state_forward(u1, u2, cost, p, linear=linear),
                             state_forward_reference(u1, u2, cost, p, linear=linear))

    @pytest.mark.parametrize("n_steps", [200, 500, 2000])
    def test_the_coupled_pass_equals_the_loop_bit_for_bit(self, n_steps):
        # Random starts around the baseline optimum (-0.07, -1.9) clamp
        # both controls at either bound somewhere and leave them inside
        # elsewhere.
        rng = np.random.default_rng(n_steps + 2)
        for functional in ("new", "legacy"):
            p = make_baseline_params(n_steps=n_steps, functional=functional)
            cost = running_cost(p)
            for psi0 in zip(rng.uniform(-0.2, 0.05, 3), rng.uniform(-5.0, 0.5, 3)):
                self.assert_same(integrate_coupled(psi0, cost, p), coupled_reference(psi0, cost, p))

    # At beta 0.05 I grows to about 10 by t = 0.2-0.25, where a step's
    # stage sum of a_i*I = 3e306 * I overflows z while S, I and the
    # costates stay finite.  Vaccination at -30 grows S until it overflows
    # at 0.3, after z has at 0.1: the first non-finite node of the finished
    # arrays is z's.  At beta 0, vaccination at -100 overflows S alone, at
    # 8.4, while I and z stay finite.
    @pytest.mark.parametrize("passes, start, beta, huge_a_i, time", [
        ("state", 0.45, 0.05, True, 0.25),
        ("state", -30.0, 0.05, True, 0.1),
        ("state", -30.0, 0.05, False, 0.3),
        ("state", -100.0, 0.0, False, 8.4),
        ("coupled", (0.0, 0.0), 0.05, True, 0.2),
        ("coupled", (-1e308, -1e308), 0.05, False, 0.05),
    ], ids=["z-state", "z-before-S", "S", "S-alone", "z-coupled", "psi"])
    def test_raise_times_are_the_loops(self, passes, start, beta, huge_a_i, time):
        p = make_baseline_params(beta=beta, n_steps=200)
        cost = RunningCost(a_i=3e306, w1=1.0, w2=1.0) if huge_a_i else running_cost(p)
        if passes == "state":
            args = (np.full(201, start), np.full(201, 0.9))
            pair = (integrate_state_forward, state_forward_reference)
        else:
            args = (start,)
            pair = (integrate_coupled, coupled_reference)
        times = []
        for integrate in pair:
            with warnings.catch_warnings(), pytest.raises(NonFiniteError) as err:
                warnings.simplefilter("error")
                integrate(*args, cost, p)
            times.append(err.value.time)
        assert times[0] == times[1] == pytest.approx(time)

    def test_trajectory_arrays_hold_only_their_own_nodes(self, baseline_params, baseline_cost):
        # A view into a pass's row block (its nodes) would keep the whole
        # block alive for as long as the trajectory.
        n = baseline_params.n_steps
        rng = np.random.default_rng(5)
        u1, u2 = rng.uniform(0.0, 0.9, (2, n + 1))
        state = integrate_state_forward(u1, u2, baseline_cost, baseline_params, linear=True)
        psi1, psi2 = integrate_adjoint_backward(state, baseline_cost, baseline_params)
        coupled = integrate_coupled((-0.07, -1.9), baseline_cost, baseline_params)
        for traj in (state, replace(state, psi1=psi1, psi2=psi2), coupled):
            for name in TRAJECTORY_FIELDS:
                a = getattr(traj, name)
                assert a is None or a.base is None or a.base.size == n + 1, name

    # One 2000-step pass after a warm-up pass: the coupled pass from near
    # the baseline optimum, the state pass under u = 0.5 read linearly and
    # the costate pass along that state.  Dropping each forward pass's row
    # list after its columns were copied peaks at 821 and 964 KiB; keeping
    # it alive peaks at 1020 and 1074 KiB.  The costate pass, building its
    # node fields once, peaks at 1190 KiB, and at 1488 KiB building them
    # once per step end.  Each bound lies between the two.
    @pytest.mark.parametrize("passes, bound_kib", [("coupled", 920), ("state", 1020), ("costate", 1340)],
                             ids=["coupled", "state", "costate"])
    def test_a_pass_peaks_under_its_bound(self, baseline_params, baseline_cost, passes, bound_kib):
        u = np.full(baseline_params.n_steps + 1, 0.5)
        state = integrate_state_forward(u, u, baseline_cost, baseline_params, linear=True)
        run = {
            "coupled": lambda: integrate_coupled((-0.07, -1.9), baseline_cost, baseline_params),
            "state": lambda: integrate_state_forward(u, u, baseline_cost, baseline_params, linear=True),
            "costate": lambda: integrate_adjoint_backward(state, baseline_cost, baseline_params),
        }[passes]
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_kib * 1024


class TestPiecewiseLinearControls:
    """The linear=True reading of a schedule, which the forward-backward
    sweep uses.  The state pass has both readings; the costate pass reads
    linearly only."""

    @pytest.mark.parametrize("n_steps", [200, 2000])
    def test_constant_schedules_read_the_same_either_way(self, n_steps):
        # Between equal nodes the linear reading's mean is the node value
        # itself, so both readings run the same arithmetic.
        p = make_baseline_params(n_steps=n_steps)
        cost = running_cost(p)
        u1, u2 = np.full(n_steps + 1, 0.3), np.full(n_steps + 1, 0.6)
        held = integrate_state_forward(u1, u2, cost, p)
        linear = integrate_state_forward(u1, u2, cost, p, linear=True)
        for name in ("s", "i", "r", "d", "z", "z_control"):
            assert np.array_equal(getattr(held, name), getattr(linear, name)), name

    @pytest.mark.parametrize("linear, lo, hi", [(True, 3.5, math.inf), (False, 0.0, 2.5)])
    def test_convergence_order_of_each_reading(self, linear, lo, hi):
        # A smooth schedule sampled at the nodes.  Halving the step
        # divides a second-order error by 4 and a first-order one by 2.
        # The ratios of successive differences measured 3.99-4.02 read
        # linearly and 1.93-2.02 held constant over each step; the bounds
        # sit 0.5 from 4 and 2, so neither reading can pass the other's.
        # The costates, read linearly, join the linear reading's values.
        values = []
        for n in (100, 200, 400, 800):
            p = make_baseline_params(n_steps=n)
            cost = running_cost(p)
            t = np.linspace(0.0, p.horizon, n + 1)
            traj = integrate_state_forward(
                0.45 * (1.0 + np.sin(t)), 0.9 * np.exp(-t / 5.0), cost, p, linear=linear
            )
            costates = tuple(psi[0] for psi in integrate_adjoint_backward(traj, cost, p)) if linear else ()
            values.append((traj.z[-1], traj.i[-1], *costates))
        diffs = np.diff(np.array(values), axis=0)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((ratios >= lo) & (ratios <= hi)), ratios


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
