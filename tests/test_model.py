"""Pointwise mathematics: dynamics, costates, Hamiltonian, clamp law."""

import math

import numpy as np
import pytest

from sircontrol import (
    BASELINE,
    ModelParams,
    RunningCost,
    adjoint_rhs,
    control_effort,
    cost_rate,
    dynamics_rhs,
    hamiltonian,
    optimal_controls,
    optimal_controls_lanes,
    removed_rhs,
    running_cost,
)

from conftest import make_baseline_params


def params(**overrides) -> ModelParams:
    base = dict(
        beta=0.5, alpha=0.2, c1=1.0, c2=1.0, c3=1.0,
        u1_max=0.9, u2_max=0.9, horizon=10.0, s0=2.0, i0=3.0, r0=0.0,
    )
    base.update(overrides)
    return ModelParams(**base)


SOURCE = RunningCost(a_i=0.4, w1=1.0, w2=1.0)


def flows(s, i, u1, u2, p, cost=SOURCE):
    """(dS, dI, dR, dD, dz, dz_control) from the four state kernels."""
    effort = control_effort(u1, u2, cost.w1, cost.w2)
    return (*dynamics_rhs(s, i, u1, u2, p.beta, p.alpha), *removed_rhs(s, i, u1, u2, p.alpha),
            cost_rate(effort, i, cost.a_i), effort)


def costate_rates(s, i, psi1, psi2, u1, u2, cost, p):
    return adjoint_rhs(s, i, psi1, psi2, u1, u2, p.beta, p.alpha, cost.a_i)


def ham(s, i, psi1, psi2, u1, u2, cost, p):
    return hamiltonian(s, i, psi1, psi2, u1, u2, p.beta, p.alpha, cost.a_i, cost.w1, cost.w2)


def law(s, i, psi1, psi2, cost, p):
    return optimal_controls(s, i, psi1, psi2, cost.w1, cost.w2, p.u1_max, p.u2_max)


class TestStateRhs:
    def test_direct_substitution(self):
        p = params()
        ds, di, dr, dd, dz, dzc = flows(2.0, 3.0, 0.1, 0.3, p)
        assert ds == pytest.approx(-3.2, abs=1e-12)
        assert di == pytest.approx(1.5, abs=1e-12)
        assert dr == pytest.approx(1.1, abs=1e-12)
        assert dd == pytest.approx(0.6, abs=1e-12)
        assert dzc == pytest.approx(0.1, abs=1e-12)
        assert dz == pytest.approx(1.3, abs=1e-12)

    def test_decoupled_decay(self):
        p = params(beta=0.0, s0=1.0, i0=1.0)
        assert flows(1.0, 1.0, 0.0, 0.0, p)[:4] == (0.0, -0.2, 0.0, 0.2)

    def test_infection_free_face(self):
        p = params()
        for s, u1 in ((5.0, 0.0), (0.7, 0.3), (12.0, 0.9)):
            _, di, dr, dd, _, _ = flows(s, 0.0, u1, 0.5, p)
            assert di == 0.0
            assert dd == 0.0
            assert dr == u1 * s

    def test_components_sum_to_zero(self):
        # Closed system: the four flows cancel pairwise; floating-point
        # addition leaves at most a few ULPs of the component scale.
        rng = np.random.default_rng(7)
        p = params()
        for _ in range(200):
            s, i, _, _ = rng.uniform(0.0, 100.0, 4)
            u1, u2 = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)
            dx = flows(s, i, u1, u2, p)[:4]
            scale = sum(abs(v) for v in dx) + 1.0
            assert abs(sum(dx)) <= 1e-13 * scale

    def test_components_sum_to_exactly_zero_where_nothing_rounds(self):
        # dynamics_rhs and removed_rhs write each flow once, with either
        # sign: on eighths, where no product or sum rounds, they cancel to 0.
        rng = np.random.default_rng(8)
        for _ in range(200):
            s, i = rng.integers(0, 800, 2) / 8.0
            u1, u2, beta, alpha = rng.integers(0, 8, 4) / 8.0
            (ds, di), (dr, dd) = dynamics_rhs(s, i, u1, u2, beta, alpha), removed_rhs(s, i, u1, u2, alpha)
            assert ds + di + dr + dd == 0.0


class TestAdjointRhs:
    def test_direct_substitution(self):
        p = params()
        dpsi1, dpsi2 = costate_rates(2.0, 3.0, 1.0, -1.0, 0.1, 0.3, SOURCE, p)
        assert dpsi1 == pytest.approx(3.1, abs=1e-12)
        assert dpsi2 == pytest.approx(1.9, abs=1e-12)

    def test_zero_costate_homogeneous_equilibrium(self):
        p = params()
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        assert costate_rates(2.0, 3.0, 0.0, 0.0, 0.1, 0.3, cost, p) == (0.0, 0.0)

    def test_source_term_only(self):
        p = params()
        assert costate_rates(2.0, 3.0, 0.0, 0.0, 0.1, 0.3, SOURCE, p) == (0.0, 0.4)

    def test_homogeneous_part_scales_linearly(self):
        rng = np.random.default_rng(11)
        p = params()
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        for _ in range(100):
            psi1, psi2 = rng.normal(0.0, 5.0, 2)
            s, i, _, _ = rng.uniform(0.0, 50.0, 4)
            u1, u2 = rng.uniform(0, 0.9), rng.uniform(0, 0.9)
            lam = rng.uniform(-3.0, 3.0)
            base = costate_rates(s, i, psi1, psi2, u1, u2, cost, p)
            scaled = costate_rates(s, i, lam * psi1, lam * psi2, u1, u2, cost, p)
            assert scaled[0] == pytest.approx(lam * base[0], rel=1e-12, abs=1e-12)
            assert scaled[1] == pytest.approx(lam * base[1], rel=1e-12, abs=1e-12)


class TestHamiltonian:
    def test_direct_substitution(self):
        p = params()
        assert ham(2.0, 3.0, 1.0, -1.0, 0.1, 0.3, SOURCE, p) == pytest.approx(-6.0, abs=1e-12)

    def test_all_terms_vanish(self):
        p = params()
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        assert ham(2.0, 3.0, 0.0, 0.0, 0.0, 0.0, cost, p) == 0.0

    def test_zero_control_reduction(self):
        # H at u = 0 collapses to -a_i*I + (psi2 - psi1)*beta*S*I - psi2*alpha*I.
        rng = np.random.default_rng(13)
        p = params()
        cost = RunningCost(a_i=0.4, w1=2.0, w2=3.0)
        for _ in range(50):
            s, i, _, _ = rng.uniform(0.0, 20.0, 4)
            psi1, psi2 = rng.normal(0.0, 2.0, 2)
            got = ham(s, i, psi1, psi2, 0.0, 0.0, cost, p)
            want = -cost.a_i * i + (psi2 - psi1) * p.beta * s * i - psi2 * p.alpha * i
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestOptimalControls:
    def test_negative_stationary_point_clamps_to_zero(self):
        p = params()
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        u1, _ = law(3.0, 1.0, 1.0, 0.0, cost, p)
        assert u1 == 0.0

    def test_oversized_stationary_point_clamps_to_max(self):
        p = params(u1_max=0.9)
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        u1, _ = law(2.0, 1.0, -1.0, 0.0, cost, p)
        assert u1 == 0.9

    def test_interior_stationary_point(self):
        p = params(u2_max=0.9)
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        _, u2 = law(1.0, 2.0, 0.0, -0.5, cost, p)
        assert u2 == pytest.approx(0.5, abs=1e-15)

    def test_always_inside_the_box(self):
        rng = np.random.default_rng(17)
        p = params(u1_max=0.7, u2_max=0.4)
        cost = RunningCost(a_i=1.0, w1=0.3, w2=2.0)
        for _ in range(300):
            s, i, _, _ = rng.uniform(0.0, 100.0, 4)
            psi1, psi2 = rng.normal(0.0, 10.0, 2)
            u1, u2 = law(s, i, psi1, psi2, cost, p)
            assert 0.0 <= u1 <= p.u1_max
            assert 0.0 <= u2 <= p.u2_max

    def test_interior_control_is_stationary(self):
        rng = np.random.default_rng(19)
        p = params(u1_max=5.0, u2_max=5.0)
        cost = RunningCost(a_i=1.0, w1=0.8, w2=1.7)
        hits = 0
        for _ in range(300):
            s, i, _, _ = rng.uniform(0.1, 10.0, 4)
            psi1, psi2 = rng.normal(0.0, 1.0, 2)
            u1, u2 = law(s, i, psi1, psi2, cost, p)
            if 0.0 < u1 < p.u1_max:
                hits += 1
                assert 2.0 * cost.w1 * u1 + psi1 * s == pytest.approx(0.0, abs=1e-12)
            if 0.0 < u2 < p.u2_max:
                assert 2.0 * cost.w2 * u2 + psi2 * i == pytest.approx(0.0, abs=1e-12)
        assert hits > 50  # the sampling actually exercises interior branches

    def test_maximizes_hamiltonian_over_random_controls(self):
        rng = np.random.default_rng(23)
        p = params(u1_max=0.9, u2_max=0.6)
        cost = RunningCost(a_i=0.5, w1=1.2, w2=0.7)
        for _ in range(20):
            s, i, _, _ = rng.uniform(0.0, 30.0, 4)
            psi1, psi2 = rng.normal(0.0, 3.0, 2)
            u_star = law(s, i, psi1, psi2, cost, p)
            h_star = ham(s, i, psi1, psi2, *u_star, cost, p)
            for _ in range(100):
                u1, u2 = rng.uniform(0.0, p.u1_max), rng.uniform(0.0, p.u2_max)
                assert h_star >= ham(s, i, psi1, psi2, u1, u2, cost, p) - 1e-12


class TestClamp:
    def test_boundary_ties_resolve_to_the_bound(self):
        # With S = I = 1 and w = 1/2 the stationary point is -psi, so each
        # case places it exactly: on a bound, outside, or inside [0, 1].
        p = params(u1_max=1.0, u2_max=1.0)
        cost = RunningCost(a_i=0.0, w1=0.5, w2=0.5)
        for stationary, want in ((0.0, 0.0), (1.0, 1.0), (-0.5, 0.0), (1.5, 1.0), (0.25, 0.25)):
            assert law(1.0, 1.0, -stationary, -stationary, cost, p) == (want, want)
        # A zero costate gives the stationary point -0.0; the law returns +0.0.
        for u in law(1.0, 1.0, 0.0, 0.0, cost, p):
            assert math.copysign(1.0, u) == 1.0

    def test_lane_law_equals_the_scalar_law_bit_for_bit(self):
        # Random nodes, exact zeros (state or costate, either sign) and
        # stationary points exactly on a bound: every lane must carry the
        # scalar law's bits, sign bit included.
        rng = np.random.default_rng(29)
        n = 400
        s, i = rng.uniform(0.0, 100.0, (2, n))
        psi1, psi2 = rng.normal(0.0, 0.05, (2, n))
        s[:40], i[40:80] = 0.0, 0.0
        psi1[80:120], psi2[120:160] = 0.0, -0.0
        s[160:200], i[160:200] = 1.0, 1.0
        psi1[160:200] = -rng.choice([0.0, -0.0, 0.9, 1.0, 1.5], 40)
        psi2[160:200] = -rng.choice([0.0, -0.0, 0.9, 1.0, 1.5], 40)
        w1, w2, u1_max, u2_max = 0.5, 0.5, 0.9, 1.0
        lanes = optimal_controls_lanes(s, i, psi1, psi2, w1, w2, u1_max, u2_max)
        scalar = np.array([
            optimal_controls(*node, w1, w2, u1_max, u2_max)
            for node in zip(s.tolist(), i.tolist(), psi1.tolist(), psi2.tolist())
        ]).T
        for got, want in zip(lanes, scalar):
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.count_nonzero(lanes[0] == u1_max) and np.count_nonzero(lanes[1] == u2_max)
        assert not np.signbit(lanes[0]).any() and not np.signbit(lanes[1]).any()


class TestValidation:
    def test_rejects_nonpositive_quadratic_weights(self):
        with pytest.raises(ValueError, match="c1"):
            params(c1=0.0)
        with pytest.raises(ValueError, match="c2"):
            params(c2=-1.0)

    def test_rejects_bad_horizon_and_grid(self):
        with pytest.raises(ValueError, match="horizon"):
            params(horizon=0.0)
        with pytest.raises(ValueError, match="n_steps"):
            params(n_steps=1)

    def test_rejects_unknown_functional(self):
        with pytest.raises(ValueError, match="functional"):
            params(functional="both")

    def test_reports_every_violation(self):
        with pytest.raises(ValueError) as err:
            params(c1=0.0, horizon=-1.0, beta=-0.5)
        message = str(err.value)
        assert "c1" in message and "horizon" in message and "beta" in message

    def test_running_cost_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            RunningCost(a_i=1.0, w1=0.0, w2=1.0)
        with pytest.raises(ValueError):
            RunningCost(a_i=1.0, w1=1.0, w2=-2.0)
        with pytest.raises(ValueError):
            RunningCost(a_i=-0.1, w1=1.0, w2=1.0)


class TestRunningCostMapping:
    def test_new_functional_weights(self):
        p = make_baseline_params()  # c = (1, 1, 10), alpha = 0.1
        cost = running_cost(p)
        assert (cost.a_i, cost.w1, cost.w2) == (p.c3 * p.alpha, p.c1, p.c2)

    def test_legacy_functional_weights(self):
        p = make_baseline_params(functional="legacy")
        cost = running_cost(p)
        assert (cost.a_i, cost.w1, cost.w2) == (p.c1, p.c3, p.c2)

    def test_legacy_needs_positive_c3(self):
        # c3 weights u1^2 under the legacy functional, so the parameters
        # are rejected before running_cost can map them.
        with pytest.raises(ValueError, match="c3 must be positive under the legacy functional"):
            make_baseline_params(functional="legacy", c3=0.0)
        assert running_cost(make_baseline_params(c3=0.0)).a_i == 0.0

    def test_new_at_alpha_zero_has_no_state_term(self):
        p = make_baseline_params(alpha=0.0)
        assert running_cost(p).a_i == 0.0


class TestPlainFloats:
    FLOAT_FIELDS = ("beta", "alpha", "c1", "c2", "c3", "u1_max", "u2_max", "horizon", "s0", "i0", "r0")

    def test_numpy_scalars_are_held_as_floats(self):
        base = make_baseline_params()
        p = ModelParams(**{**base.__dict__, **{f: np.float64(getattr(base, f)) for f in self.FLOAT_FIELDS}})
        assert all(type(getattr(p, f)) is float for f in self.FLOAT_FIELDS)
        assert type(p.n_steps) is int and p.functional == "new"
        assert p == base

    def test_a_numpy_scalar_solve_equals_the_float_solve_bit_for_bit(self):
        from sircontrol import solve_shooting

        # Criterion 04 builds its draws from numpy products like these.
        factors = np.array([1.3, 0.7])
        beta, alpha = BASELINE.beta * factors[0], BASELINE.alpha * factors[1]
        floats = make_baseline_params(n_steps=400, beta=float(beta), alpha=float(alpha))
        scalars = make_baseline_params(n_steps=400, beta=beta, alpha=alpha)
        want = solve_shooting(running_cost(floats), floats)
        got = solve_shooting(running_cost(scalars), scalars)
        assert (got.objective, got.residual_norm, got.newton_iters) == (
            want.objective, want.residual_norm, want.newton_iters)
        assert np.array_equal(got.trajectory.s, want.trajectory.s)
        assert np.array_equal(got.trajectory.psi2, want.trajectory.psi2)
