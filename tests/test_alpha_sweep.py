"""Alpha study: row bookkeeping, rows equal to direct solves, edge alphas."""

import pytest

from sircontrol import running_cost, solve_shooting, sweep_alpha

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
        from dataclasses import replace

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

    def test_validation(self, small_params):
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [])
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [-0.1, 0.2])
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [0.2, 0.1])
        with pytest.raises(ValueError):
            sweep_alpha(small_params, [0.1, 0.1])
