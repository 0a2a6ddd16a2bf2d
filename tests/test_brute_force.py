"""Exhaustive schedule enumeration: guards, determinism, solver bounds."""

import numpy as np
import pytest

from sircontrol import (
    NonFiniteError,
    RunningCost,
    TooLargeError,
    brute_force_best,
    control_levels,
    evaluate_objective,
    expand_piecewise_schedule,
    integrate_state_forward,
    interval_boundaries,
    running_cost,
    solve_shooting,
)
from sircontrol import brute_force

from conftest import make_baseline_params


class TestControlLevels:
    def test_endpoints_always_present(self):
        for n in (2, 4, 7):
            levels = control_levels(0.9, n)
            assert levels[0] == 0.0
            assert levels[-1] == 0.9
            assert len(levels) == n
            assert np.all(np.diff(levels) > 0.0)

    def test_single_level_is_zero(self):
        assert np.array_equal(control_levels(0.9, 1), [0.0])

    def test_rejects_no_levels(self):
        with pytest.raises(ValueError):
            control_levels(0.9, 0)


class TestBruteForce:
    def test_singleton_search_equals_uncontrolled_flow(self, baseline_params, baseline_cost):
        result = brute_force_best(baseline_cost, baseline_params, n_intervals=1, levels_per_control=1)
        zeros = np.zeros(baseline_params.n_steps + 1)
        free = integrate_state_forward(zeros, zeros, baseline_cost, baseline_params)
        assert result.n_schedules == 1
        assert result.objective == evaluate_objective(free)

    def test_zero_state_weight_prefers_all_zero_schedule(self, baseline_params):
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        result = brute_force_best(cost, baseline_params, n_intervals=2, levels_per_control=3)
        assert np.all(result.u1_levels == 0.0)
        assert np.all(result.u2_levels == 0.0)
        assert result.objective == 0.0

    def test_enumeration_guard(self, baseline_params, baseline_cost):
        with pytest.raises(TooLargeError):
            brute_force_best(baseline_cost, baseline_params, n_intervals=5, levels_per_control=4)

    def test_batch_path_matches_scalar_integrator(self, baseline_params, baseline_cost):
        # The reported best objective must be the same number the scalar
        # forward integrator assigns to the winning schedule.
        result = brute_force_best(baseline_cost, baseline_params, n_intervals=3, levels_per_control=2)
        bounds = interval_boundaries(baseline_params.n_steps, 3)
        traj = integrate_state_forward(
            expand_piecewise_schedule(result.u1_levels, bounds, baseline_params.n_steps),
            expand_piecewise_schedule(result.u2_levels, bounds, baseline_params.n_steps),
            baseline_cost, baseline_params,
        )
        assert result.objective == evaluate_objective(traj)

    @pytest.mark.parametrize("functional", ["new", "legacy"])
    def test_lanes_equal_scalar_integrator_bit_for_bit(self, functional):
        # Every schedule of 3 intervals x 3 levels, on the uneven split
        # 33/33/34 with the interior level 0.45: the prefix walk shares
        # state_rhs and the per-lane arithmetic with the scalar pass, so
        # each objective is the scalar integrator's number exactly, and
        # each schedule index comes out exactly once.
        p = make_baseline_params(functional=functional, n_steps=100)
        cost = running_cost(p)
        levels = control_levels(0.9, 3)
        bounds = interval_boundaries(p.n_steps, 3)
        assert np.diff(bounds).tolist() == [33, 33, 34]
        assert levels[1] == 0.45
        seen = []
        for idx, objs, _ in brute_force._walk_schedules(cost, p, n_intervals=3, levels_per_control=3):
            for index, obj in zip(idx.tolist(), objs.tolist()):
                digits = [index // 3**k % 3 for k in reversed(range(6))]
                traj = integrate_state_forward(
                    expand_piecewise_schedule(levels[digits[:3]], bounds, p.n_steps),
                    expand_piecewise_schedule(levels[digits[3:]], bounds, p.n_steps),
                    cost, p,
                )
                assert obj == evaluate_objective(traj)
                seen.append(index)
        assert sorted(seen) == list(range(3**6))

    @pytest.mark.parametrize("batch", [7, 1])
    def test_chunk_edges_do_not_change_the_result(self, monkeypatch, batch):
        # Chunks of 7 or 1 lanes split the L^2 = 9 children of a prefix
        # across chunks; the walk must still visit every schedule once.
        p = make_baseline_params(n_steps=30)
        cost = running_cost(p)
        default = brute_force_best(cost, p, n_intervals=3, levels_per_control=3)
        monkeypatch.setattr(brute_force, "_BATCH", batch)
        chunked = brute_force_best(cost, p, n_intervals=3, levels_per_control=3)
        assert np.array_equal(chunked.u1_levels, default.u1_levels)
        assert np.array_equal(chunked.u2_levels, default.u2_levels)
        assert chunked.objective == default.objective
        assert chunked.n_schedules == default.n_schedules == 3**6
        assert chunked.lane_steps == default.lane_steps

    @pytest.mark.parametrize(
        "n_intervals, levels, lane_steps",
        # sum_j L^(2(j+1)) * steps_j; 3 intervals split 2000 steps 666/667/667
        [(3, 5, 10_855_400), (3, 4, 2_913_440), (1, 2, 4 * 2000)],
    )
    def test_lane_steps_count_each_prefix_once(self, baseline_params, baseline_cost,
                                               n_intervals, levels, lane_steps):
        result = brute_force_best(baseline_cost, baseline_params, n_intervals, levels)
        assert result.lane_steps == lane_steps

    def test_diverged_schedules_never_win(self):
        # At beta = 0.5 all but three of the nine schedules overflow to
        # NaN; the best finite one, (0.9, 0.9), must still be found.
        p = make_baseline_params(beta=0.5, n_steps=80)
        cost = running_cost(p)
        result = brute_force_best(cost, p, n_intervals=1, levels_per_control=3)
        assert result.u1_levels.tolist() == [0.9]
        assert result.u2_levels.tolist() == [0.9]
        full = np.full(p.n_steps + 1, 0.9)
        assert result.objective == evaluate_objective(integrate_state_forward(full, full, cost, p))

    def test_raises_when_every_schedule_diverges(self):
        p = make_baseline_params(beta=5.0, n_steps=20)
        with pytest.raises(NonFiniteError):
            brute_force_best(running_cost(p), p, n_intervals=1, levels_per_control=2)

    @pytest.mark.parametrize("n_intervals, levels", [(1, 2), (3, 3)])
    def test_every_schedule_diverging_names_the_earliest_divergence(self, n_intervals, levels):
        # Every lane blows up in the second of 20 steps (t = 1), long
        # before the horizon.
        p = make_baseline_params(beta=5.0, n_steps=20)
        with pytest.raises(NonFiniteError, match="every enumerated schedule diverged") as err:
            brute_force_best(running_cost(p), p, n_intervals=n_intervals, levels_per_control=levels)
        assert err.value.time == 1.0

    def test_deterministic_repeat(self, baseline_params, baseline_cost):
        a = brute_force_best(baseline_cost, baseline_params, n_intervals=2, levels_per_control=3)
        b = brute_force_best(baseline_cost, baseline_params, n_intervals=2, levels_per_control=3)
        assert a.objective == b.objective
        assert np.array_equal(a.u1_levels, b.u1_levels)
        assert np.array_equal(a.u2_levels, b.u2_levels)

    def test_refining_levels_never_increases_the_best(self):
        p = make_baseline_params(n_steps=500)
        cost = running_cost(p)
        coarse = brute_force_best(cost, p, n_intervals=2, levels_per_control=4)
        fine = brute_force_best(cost, p, n_intervals=2, levels_per_control=8)
        assert fine.objective <= coarse.objective

    def test_never_beats_the_converged_solver(self):
        p = make_baseline_params(n_steps=500)
        cost = running_cost(p)
        report = solve_shooting(cost, p)
        assert report.converged
        result = brute_force_best(cost, p, n_intervals=2, levels_per_control=4)
        assert report.objective <= result.objective + 1e-9 * abs(result.objective)
