"""Alpha study: row bookkeeping, rows equal to direct solves, edge alphas, workers."""

import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from sircontrol import ConfigError, NonFiniteError, running_cost, solve_shooting, sweep_alpha

from conftest import make_baseline_params


@pytest.fixture(scope="module")
def small_params():
    # A lighter grid keeps the many-solve tests quick; the acceptance
    # suite runs the full-resolution ten-point study.
    return make_baseline_params(n_steps=800)


GRID = [0.1, 0.15, 0.2, 0.25]


@pytest.fixture(scope="module")
def grid_rows(small_params):
    return sweep_alpha(small_params, GRID)


class TestSweepAlpha:
    def test_rows_echo_the_input_grid(self, small_params):
        alphas = [0.1, 0.2, 0.35]
        rows = sweep_alpha(small_params, alphas)
        assert [row.alpha for row in rows] == alphas
        assert all(row.converged_new and row.converged_legacy for row in rows)

    @pytest.mark.parametrize("alpha", GRID)
    def test_rows_match_direct_solves_field_for_field(self, small_params, grid_rows, alpha):
        # Every solve of the sweep stands alone, so each row of a grid
        # equals the direct solves at its alpha exactly.
        row = grid_rows[GRID.index(alpha)]
        assert row.alpha == alpha
        p_new = replace(small_params, alpha=alpha, functional="new")
        p_leg = replace(small_params, alpha=alpha, functional="legacy")
        rep_new = solve_shooting(running_cost(p_new), p_new)
        rep_leg = solve_shooting(running_cost(p_leg), p_leg)
        assert row.objective_new == rep_new.objective
        assert row.objective_legacy == rep_leg.objective
        assert row.residual_new == rep_new.residual_norm
        assert row.residual_legacy == rep_leg.residual_norm
        assert row.newton_iters_new == rep_new.newton_iters
        assert row.newton_iters_legacy == rep_leg.newton_iters
        assert row.converged_new == rep_new.converged
        assert row.converged_legacy == rep_leg.converged
        assert row.defective_terminal_new == rep_new.trajectory.d[-1]

    def test_alpha_zero_structure(self, small_params):
        rows = sweep_alpha(small_params, [0.0])
        row = rows[0]
        assert row.objective_new == 0.0
        assert row.objective_legacy > 0.0
        assert row.defective_terminal_new == 0.0
        assert row.converged_new and row.converged_legacy

    def test_defect_direction_on_a_short_grid(self, small_params):
        rows = sweep_alpha(small_params, [0.1, 0.3, 0.5])
        legacy = [row.objective_legacy for row in rows]
        new = [row.objective_new for row in rows]
        assert legacy[0] > legacy[1] > legacy[2]
        assert new[0] <= new[1] <= new[2]

    # The paper's fix has a boundary: with deaths priced low, a deadlier
    # virus lowers the new functional's optimum too, since it removes
    # infected nodes faster and so cuts transmission and treatment.  On
    # the baseline, alpha 0.3-1.0 measured 1.638 -> 1.192 at c3 = 0.1 and
    # 10.45 -> 14.41 at c3 = 3, each in about 0.5 s.
    @pytest.mark.parametrize("c3, sign", [(0.1, -1.0), (3.0, 1.0)], ids=["falls-at-c3-0.1", "rises-at-c3-3"])
    def test_the_defect_returns_where_deaths_are_cheap(self, c3, sign):
        rows = sweep_alpha(make_baseline_params(c3=c3), np.linspace(0.3, 1.0, 8))
        assert all(row.converged_new and row.converged_legacy for row in rows)
        assert np.all(sign * np.diff([row.objective_new for row in rows]) > 0.0)

    def test_a_diverging_start_is_a_failed_point(self):
        # On 100 steps alpha = 40 sends the seed sweep's state pass to
        # infinity under both functionals; alpha = 0.05 solves.
        p = make_baseline_params(n_steps=100)
        ok, diverged = sweep_alpha(p, [0.05, 40.0])
        assert ok.alpha == 0.05 and ok.converged_new
        assert diverged.alpha == 40.0
        assert not diverged.converged_new and not diverged.converged_legacy
        assert (diverged.newton_iters_new, diverged.newton_iters_legacy) == (0, 0)
        for value in (diverged.objective_new, diverged.objective_legacy, diverged.defective_terminal_new,
                      diverged.residual_new, diverged.residual_legacy):
            assert math.isnan(value)

    def test_the_other_functional_keeps_its_values(self, small_params, grid_rows, monkeypatch):
        import sircontrol.alpha_sweep

        def legacy_diverges(cost, p, residual_tol):
            if p.functional == "legacy":
                raise NonFiniteError(0.5, "shooting start diverged")
            return solve_shooting(cost, p, residual_tol)

        monkeypatch.setattr(sircontrol.alpha_sweep, "solve_shooting", legacy_diverges)
        (row,) = sweep_alpha(small_params, [GRID[0]])
        want = grid_rows[0]
        assert (row.objective_new, row.defective_terminal_new, row.converged_new, row.residual_new,
                row.newton_iters_new) == (want.objective_new, want.defective_terminal_new,
                                          want.converged_new, want.residual_new, want.newton_iters_new)
        assert not row.converged_legacy and row.newton_iters_legacy == 0
        assert math.isnan(row.objective_legacy) and math.isnan(row.residual_legacy)

    def test_validation(self, small_params):
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [])
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [-0.1, 0.2])
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [0.2, 0.1])
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [0.1, 0.1])


class TestWorkers:
    """The solves run in forked worker processes; none outlives a sweep."""

    def test_no_worker_outlives_a_sweep(self, small_params):
        sweep_alpha(small_params, [0.1, 0.2])
        assert multiprocessing.active_children() == []

    def test_a_worker_error_reaches_the_caller(self, small_params, monkeypatch):
        import sircontrol.alpha_sweep

        def fails(cost, p, residual_tol):
            raise RuntimeError(f"solve failed at alpha {p.alpha}")

        monkeypatch.setattr(sircontrol.alpha_sweep, "solve_shooting", fails)
        with pytest.raises(RuntimeError, match="solve failed at alpha 0.1"):
            sweep_alpha(small_params, [0.1, 0.2])
        assert multiprocessing.active_children() == []

    def test_a_worker_config_error_keeps_its_problems(self, small_params, monkeypatch):
        import sircontrol.alpha_sweep

        def rejects(cost, p, residual_tol):
            raise ConfigError([("c3", "bad"), ("alpha", f"{p.alpha} is odd")])

        monkeypatch.setattr(sircontrol.alpha_sweep, "solve_shooting", rejects)
        with pytest.raises(ConfigError) as info:
            sweep_alpha(small_params, [0.1, 0.2])
        assert info.value.problems == [("c3", "bad"), ("alpha", "0.1 is odd")]
        assert multiprocessing.active_children() == []

    def test_a_bad_tolerance_raises_and_leaves_no_worker(self, small_params):
        with pytest.raises(ValueError, match="residual_tol must be positive"):
            sweep_alpha(small_params, [0.1, 0.2], residual_tol=0.0)
        assert multiprocessing.active_children() == []

    def test_invalid_parameters_raise_before_any_worker_starts(self, small_params, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="invalid model parameters: c3 must be positive"):
            sweep_alpha(replace(small_params, c3=0.0), [0.1])  # c3 = 0 is legal only under "new"
