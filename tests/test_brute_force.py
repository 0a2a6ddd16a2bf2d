"""Exhaustive schedule enumeration: guards, determinism, pruning, solver bounds."""

import itertools
import warnings

import numpy as np
import pytest

from sircontrol import (
    NonFiniteError,
    RunningCost,
    TooLargeError,
    brute_force_best,
    control_levels,
    expand_piecewise_schedule,
    integrate_state_forward,
    interval_boundaries,
    running_cost,
    solve_shooting,
)
from sircontrol import brute_force

from conftest import criterion_04_scenarios, make_baseline_params, state_forward_reference


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
        assert result.objective == float(free.z[-1])

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
        traj = integrate_state_forward(
            expand_piecewise_schedule(result.u1_levels, baseline_params.n_steps),
            expand_piecewise_schedule(result.u2_levels, baseline_params.n_steps),
            baseline_cost, baseline_params,
        )
        assert result.objective == float(traj.z[-1])

    @pytest.mark.parametrize("functional", ["new", "legacy"])
    def test_lanes_equal_scalar_integrator_bit_for_bit(self, functional):
        # Every schedule of 3 intervals x 3 levels, on the uneven split
        # 33/33/34 with the interior level 0.45: the prefix walk shares
        # the model kernels and the per-lane arithmetic with the scalar
        # pass, so each objective is the scalar integrator's number
        # exactly, and each schedule index comes out exactly once.
        p = make_baseline_params(functional=functional, n_steps=100)
        cost = running_cost(p)
        levels = control_levels(0.9, 3)
        bounds = interval_boundaries(p.n_steps, 3)
        assert np.diff(bounds).tolist() == [33, 33, 34]
        assert levels[1] == 0.45
        seen = []
        for idx, objs, _, _ in brute_force._walk_schedules(cost, p, n_intervals=3, levels_per_control=3):
            for index, obj in zip(idx.tolist(), objs.tolist()):
                digits = [index // 3**k % 3 for k in reversed(range(6))]
                traj = integrate_state_forward(
                    expand_piecewise_schedule(levels[digits[:3]], p.n_steps),
                    expand_piecewise_schedule(levels[digits[3:]], p.n_steps),
                    cost, p,
                )
                assert obj == float(traj.z[-1])
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
        assert result.objective == float(integrate_state_forward(full, full, cost, p).z[-1])

    @pytest.mark.parametrize("batch", [65536, 7, 1])
    def test_lanes_that_diverge_mid_walk_never_win(self, monkeypatch, batch):
        # After the first of 3 intervals, 6 of the 9 lanes have overflowed,
        # and every descendant of theirs stays non-finite: they are carried
        # to the end and must neither win nor change the lane-step count.
        p = make_baseline_params(beta=0.5, n_steps=80)
        monkeypatch.setattr(brute_force, "_BATCH", batch)
        result = brute_force_best(running_cost(p), p, n_intervals=3, levels_per_control=3)
        assert result.objective == 87.61358841201877
        assert result.u1_levels.tolist() == [0.9, 0.0, 0.0]
        assert result.u2_levels.tolist() == [0.9, 0.9, 0.0]
        assert result.lane_steps == 9 * 26 + 81 * 27 + 729 * 27  # unpruned

    def test_raises_when_every_schedule_diverges(self):
        p = make_baseline_params(beta=5.0, n_steps=20)
        with pytest.raises(NonFiniteError):
            brute_force_best(running_cost(p), p, n_intervals=1, levels_per_control=2)

    @pytest.mark.parametrize("batch", [65536, 1])
    @pytest.mark.parametrize("n_intervals, levels", [(1, 2), (3, 3)])
    def test_every_schedule_diverging_names_the_earliest_divergence(self, monkeypatch, n_intervals,
                                                                    levels, batch):
        # Every lane blows up in the second of 20 steps (t = 1), long
        # before the horizon, with or without a hint; in chunks of one
        # lane the time is the earliest over all chunks.
        p = make_baseline_params(beta=5.0, n_steps=20)
        monkeypatch.setattr(brute_force, "_BATCH", batch)
        full = np.full(p.n_steps + 1, 0.9)
        for hint in (None, (full, full)):
            with pytest.raises(NonFiniteError, match="every enumerated schedule diverged") as err:
                brute_force_best(running_cost(p), p, n_intervals, levels, hint=hint)
            assert err.value.time == 1.0

    def test_a_cost_that_overflows_before_the_state_names_the_loops_earliest_time(self):
        # At beta 0.05, a_i = 3e306 overflows z by t = 0.2-0.25 on every
        # schedule while S and I stay finite: the earliest time is the
        # least over the schedules of the scalar loop's, which checked z
        # after every step.
        p = make_baseline_params(beta=0.05, n_steps=200)
        cost = RunningCost(a_i=3e306, w1=1.0, w2=1.0)
        levels = control_levels(0.9, 3)
        times = set()
        for digits in itertools.product(range(3), repeat=4):
            u1, u2 = (expand_piecewise_schedule(levels[list(d)], p.n_steps) for d in (digits[:2], digits[2:]))
            with pytest.raises(NonFiniteError) as err:
                state_forward_reference(u1, u2, cost, p)
            times.add(err.value.time)
        with warnings.catch_warnings(), pytest.raises(NonFiniteError, match="every enumerated schedule") as err:
            warnings.simplefilter("error")
            brute_force_best(cost, p, n_intervals=2, levels_per_control=3)
        assert len(times) > 1
        assert err.value.time == min(times)

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


@pytest.fixture(scope="module")
def shooting_hints():
    """Controls of the converged shooting solve, keyed by (functional, scenario)."""
    hints = {}
    for functional in ("new", "legacy"):
        for k, p in enumerate(criterion_04_scenarios(functional)):
            report = solve_shooting(running_cost(p), p)
            assert report.converged
            hints[functional, k] = (report.trajectory.u1, report.trajectory.u2), report.objective
    return hints


def grid_hints(p, n_intervals, seed):
    """All-zero, all-max and a random piecewise-constant schedule, per node."""
    n = p.n_steps + 1
    rng = np.random.default_rng(seed)
    random = tuple(
        expand_piecewise_schedule(rng.uniform(0.0, u_max, n_intervals), p.n_steps)
        for u_max in (p.u1_max, p.u2_max)
    )
    return {
        "zero": (np.zeros(n), np.zeros(n)),
        "max": (np.full(n, p.u1_max), np.full(n, p.u2_max)),
        "random": random,
    }


def assert_same_result(pruned, unpruned):
    assert pruned.objective == unpruned.objective
    assert np.array_equal(pruned.u1_levels, unpruned.u1_levels)
    assert np.array_equal(pruned.u2_levels, unpruned.u2_levels)
    assert pruned.n_schedules == unpruned.n_schedules


class TestBranchAndBound:
    @pytest.mark.parametrize("functional", ["new", "legacy"])
    @pytest.mark.parametrize(
        "scenario, n_intervals, levels",
        [(0, 3, 4), (0, 3, 5), (1, 3, 4), (2, 3, 4), (3, 3, 4), (4, 3, 4), (5, 3, 4)],
    )
    def test_pruned_walk_equals_the_unpruned_walk(self, shooting_hints, functional, scenario,
                                                  n_intervals, levels):
        # Baseline at 3 x 4 and 3 x 5 and criterion 04's draws at 3 x 4,
        # each with the shooting hint and three grid hints.
        p = criterion_04_scenarios(functional)[scenario]
        cost = running_cost(p)
        unpruned = brute_force_best(cost, p, n_intervals, levels)
        hints = grid_hints(p, n_intervals, seed=scenario)
        hints["shooting"] = shooting_hints[functional, scenario][0]
        lane_steps = {}
        for name, hint in hints.items():
            pruned = brute_force_best(cost, p, n_intervals, levels, hint=hint)
            assert_same_result(pruned, unpruned)
            lane_steps[name] = pruned.lane_steps
        assert max(lane_steps.values()) <= unpruned.lane_steps
        # The shooting hint's incumbent is close enough to prune.
        assert lane_steps["shooting"] < unpruned.lane_steps

    @pytest.mark.parametrize(
        "functional, n_intervals, levels, lane_steps",
        # The unpruned walk takes 10,855,400 (3 x 5) and 34,952,000 (4 x 4).
        [("new", 3, 5, 783_700), ("legacy", 3, 5, 233_425),
         ("new", 4, 4, 560_000), ("legacy", 4, 4, 168_000)],
    )
    def test_shooting_hint_lane_steps(self, shooting_hints, functional, n_intervals, levels,
                                      lane_steps):
        p = make_baseline_params(functional=functional)
        hint = shooting_hints[functional, 0][0]
        result = brute_force_best(running_cost(p), p, n_intervals, levels, hint=hint)
        assert result.lane_steps == lane_steps

    @pytest.mark.parametrize(
        "functional, n_steps, a_i, hint_name, n_intervals, n_levels, finite",
        # The baseline's shooting hints; three grid hints where h * L =
        # 0.24 <= 1/4; and with a_i = 1e306 the zero hint, whose schedule
        # overflows, and the all-max hint, whose does not.
        [("new", 2000, None, "shooting", 3, 5, True), ("legacy", 2000, None, "shooting", 3, 5, True),
         ("new", 2000, None, "shooting", 4, 4, True), ("legacy", 2000, None, "shooting", 4, 4, True),
         ("new", 120, None, "zero", 3, 3, True), ("new", 120, None, "max", 3, 3, True),
         ("new", 120, None, "random", 3, 3, True),
         ("new", 200, 1e306, "zero", 2, 3, False), ("new", 200, 1e306, "max", 2, 3, True)],
    )
    def test_the_incumbent_is_the_walks_objective_for_its_schedule(
            self, shooting_hints, functional, n_steps, a_i, hint_name, n_intervals, n_levels, finite):
        # The bound prunes exactly only if it is, bit for bit, the number
        # the unpruned walk gives the hint's grid schedule.
        p = make_baseline_params(functional=functional, n_steps=n_steps)
        cost = running_cost(p) if a_i is None else RunningCost(a_i=a_i, w1=1.0, w2=1.0)
        if hint_name == "shooting":
            hint = shooting_hints[functional, 0][0]
        else:
            hint = grid_hints(p, n_intervals, seed=0)[hint_name]
        # Each interval's mean hint, rounded to the nearest level (the lower
        # on a tie), gives one base-L digit of the schedule's walk index:
        # u1 on intervals 0..m-1, then u2.
        bounds = interval_boundaries(p.n_steps, n_intervals)
        digits = [int(np.abs(u[lo:hi].mean() - control_levels(u_max, n_levels)).argmin())
                  for u, u_max in zip(hint, (p.u1_max, p.u2_max))
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        index = sum(d * n_levels**k for k, d in enumerate(reversed(digits)))
        with np.errstate(over="ignore", invalid="ignore"):
            walk = brute_force._walk_schedules(cost, p, n_intervals, n_levels)
            (objective,) = np.concatenate([objs[idx == index] for idx, objs, _, _ in walk]).tolist()
        incumbent = brute_force._incumbent(cost, p, n_intervals, n_levels, hint)
        assert np.isfinite(incumbent) == finite
        if np.isfinite(objective):
            assert incumbent == objective
        else:
            assert incumbent == objective == np.inf

    @pytest.mark.parametrize("batch", [7, 1])
    def test_chunk_edges_do_not_change_the_pruned_result(self, monkeypatch, batch):
        # 120 steps keep h * L = 0.24 under 1/4, so the all-max hint prunes.
        p = make_baseline_params(n_steps=120)
        cost = running_cost(p)
        hint = grid_hints(p, 3, seed=0)["max"]
        unpruned = brute_force_best(cost, p, n_intervals=3, levels_per_control=3)
        default = brute_force_best(cost, p, n_intervals=3, levels_per_control=3, hint=hint)
        assert default.lane_steps < unpruned.lane_steps
        monkeypatch.setattr(brute_force, "_BATCH", batch)
        chunked = brute_force_best(cost, p, n_intervals=3, levels_per_control=3, hint=hint)
        assert_same_result(chunked, unpruned)
        assert chunked.lane_steps == default.lane_steps

    @pytest.mark.parametrize("functional", ["new", "legacy"])
    @pytest.mark.parametrize("hint_levels", [(0.0, 0.0), (0.0, 0.9)])
    def test_coarse_grid_walks_unpruned(self, functional, hint_levels):
        # Two RK4 steps over a horizon of 10 drive I negative, so z falls
        # along a lane and objectives reach -2e5: a prefix above the
        # incumbent can still win.  The grid schedule of the hint is a
        # valid incumbent, yet the walk must not prune here.
        p = make_baseline_params(n_steps=2, alpha=0.5, beta=0.001, functional=functional)
        cost = running_cost(p)
        hint = tuple(np.full(p.n_steps + 1, u) for u in hint_levels)
        incumbent = integrate_state_forward(*hint, cost, p)
        assert np.isfinite(incumbent.z[-1])
        unpruned = brute_force_best(cost, p, n_intervals=2, levels_per_control=3)
        assert unpruned.objective < -4e4
        guarded = brute_force_best(cost, p, n_intervals=2, levels_per_control=3, hint=hint)
        assert_same_result(guarded, unpruned)
        assert guarded.lane_steps == unpruned.lane_steps

    def test_a_prefix_that_ties_the_incumbent_survives(self, baseline_params):
        # Without a state weight the all-zero schedule costs exactly 0, and
        # so does each of its prefixes: pruning must be strict.
        cost = RunningCost(a_i=0.0, w1=1.0, w2=1.0)
        zeros = np.zeros(baseline_params.n_steps + 1)
        unpruned = brute_force_best(cost, baseline_params, 2, 3)
        pruned = brute_force_best(cost, baseline_params, 2, 3, hint=(zeros, zeros))
        assert_same_result(pruned, unpruned)
        assert pruned.objective == 0.0
        assert pruned.lane_steps < unpruned.lane_steps

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_hint_walks_unpruned(self, baseline_params, baseline_cost, bad):
        # The all-max hint prunes; one non-finite node makes it no bound.
        u = np.full(baseline_params.n_steps + 1, 0.9)
        unpruned = brute_force_best(baseline_cost, baseline_params, 2, 3)
        finite = brute_force_best(baseline_cost, baseline_params, 2, 3, hint=(u, u))
        assert finite.lane_steps < unpruned.lane_steps
        u[5] = bad
        hinted = brute_force_best(baseline_cost, baseline_params, 2, 3, hint=(u, u))
        assert_same_result(hinted, unpruned)
        assert hinted.lane_steps == unpruned.lane_steps

    def test_a_hint_whose_schedule_overflows_walks_unpruned(self):
        # At 200 steps h * L = 0.145 <= 1/4, so a hint may prune.  With
        # a_i = 1e306 the zero hint's grid schedule costs more than a float
        # holds (its pass raises at t = 2.45), so it bounds nothing; the
        # all-max hint's costs 8.5e306 and prunes.
        p = make_baseline_params(n_steps=200)
        cost = RunningCost(a_i=1e306, w1=1.0, w2=1.0)
        zeros, full = np.zeros(201), np.full(201, 0.9)
        with pytest.raises(NonFiniteError) as err:
            integrate_state_forward(zeros, zeros, cost, p)
        assert err.value.time == pytest.approx(2.45)
        unpruned = brute_force_best(cost, p, 2, 3)
        assert unpruned.objective == 8.497883510061123e306
        assert unpruned.u1_levels.tolist() == unpruned.u2_levels.tolist() == [0.9, 0.9]
        zero_hint = brute_force_best(cost, p, 2, 3, hint=(zeros, zeros))
        full_hint = brute_force_best(cost, p, 2, 3, hint=(full, full))
        for hinted in (zero_hint, full_hint):
            assert_same_result(hinted, unpruned)
        assert (unpruned.lane_steps, zero_hint.lane_steps, full_hint.lane_steps) == (9000, 9000, 1800)

    def test_a_hint_whose_means_overflow_rounds_to_the_top_level(self):
        # Each interval's sum of 1e308s overflows, so its mean is inf: it
        # lies above the box and must round to u_max, giving the all-top
        # schedule (index 80 of 3^4), not level 0.
        p = make_baseline_params(n_steps=200)
        cost = running_cost(p)
        hint = (np.full(201, 1e308),) * 2
        unpruned = brute_force_best(cost, p, 2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hinted = brute_force_best(cost, p, 2, 3, hint=hint)
            with np.errstate(over="ignore", invalid="ignore"):
                bound = brute_force._incumbent(cost, p, 2, 3, hint)
                walk = brute_force._walk_schedules(cost, p, 2, 3)
                (top,) = np.concatenate([objs[idx == 80] for idx, objs, _, _ in walk]).tolist()
        assert bound == top == 24.697883510061114
        assert_same_result(hinted, unpruned)
        assert hinted.objective == 16.383265863110317
        assert (hinted.u1_levels.tolist(), hinted.u2_levels.tolist()) == ([0.45, 0.0], [0.9, 0.0])
        assert (unpruned.lane_steps, hinted.lane_steps) == (9000, 5400)

    def test_hint_needs_one_value_per_node(self, baseline_params, baseline_cost):
        short = np.zeros(baseline_params.n_steps)
        with pytest.raises(ValueError, match="n_steps \\+ 1"):
            brute_force_best(baseline_cost, baseline_params, 1, 2, hint=(short, short))
        # Checked also where the hint may not prune (h * L = 1.45 at 20
        # steps), and a third control is not silently dropped.
        coarse = make_baseline_params(n_steps=20)
        with pytest.raises(ValueError, match="n_steps \\+ 1"):
            brute_force_best(running_cost(coarse), coarse, 1, 2, hint=(np.zeros(3), np.zeros(3)))
        nodes = np.zeros(baseline_params.n_steps + 1)
        with pytest.raises(ValueError, match="two controls"):
            brute_force_best(baseline_cost, baseline_params, 1, 2, hint=(nodes, nodes, nodes))

    @pytest.mark.parametrize("functional", ["new", "legacy"])
    @pytest.mark.parametrize("scenario", range(6))
    def test_no_4x4_schedule_beats_the_optimum_across_the_box(self, shooting_hints,
                                                              functional, scenario):
        # Criterion 05's lower bound on each of criterion 04's scenarios.
        p = criterion_04_scenarios(functional)[scenario]
        hint, optimum = shooting_hints[functional, scenario]
        oracle = brute_force_best(running_cost(p), p, n_intervals=4, levels_per_control=4,
                                  hint=hint)
        assert optimum <= oracle.objective + 1e-9 * abs(oracle.objective)
