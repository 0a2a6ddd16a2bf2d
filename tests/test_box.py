"""Shooting across the declared parameter box, cross-checked by the sweep.

The box is defined in conftest.py: log-uniform factors on beta, alpha,
c1, c2 and c3 of BASELINE, horizons T within BOX_HORIZONS, both
functionals, 2000 steps.  Hypothesis draws a few scenarios from it, the
same ones every run; box_draws() is its fixed catalogue of 100 draws.
"""

import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from sircontrol import BASELINE, running_cost, solve_forward_backward, solve_shooting

from conftest import BOX_FACTORS, BOX_FIELDS, BOX_HORIZONS, box_draws, make_baseline_params

_LOG_FACTOR = st.floats(*(math.log(f) for f in BOX_FACTORS))

# The draws the long-horizon shooting test solves, rounded:
# (beta, alpha, c1, c2, c3, T).
_ROUNDED_DRAWS = {
    15: (0.008601, 0.1182, 0.9806, 0.7615, 13.21, 14.63),
    23: (0.009589, 0.1112, 1.267, 0.9295, 6.831, 13.27),
    25: (0.01437, 0.1525, 0.7658, 0.6535, 5.897, 14.63),
    36: (0.01122, 0.148, 1.935, 0.6859, 9.625, 17.23),
    44: (0.01869, 0.1448, 0.7413, 0.6895, 9.679, 16.87),
    71: (0.01619, 0.1267, 1.782, 0.5785, 6.614, 16.17),
    73: (0.01204, 0.06936, 1.289, 0.8118, 11.13, 13.1),
    90: (0.01851, 0.1286, 0.669, 0.5281, 9.958, 15.84),
}


def test_the_catalogue_is_100_draws_inside_the_box():
    draws = box_draws()
    assert len(draws) == 100
    for p in draws:
        factors = [getattr(p, name) / getattr(BASELINE, name) for name in BOX_FIELDS]
        assert all(BOX_FACTORS[0] <= f <= BOX_FACTORS[1] for f in factors)
        assert BOX_HORIZONS[0] <= p.horizon <= BOX_HORIZONS[1]
        assert replace(p, **{name: getattr(BASELINE, name) for name in (*BOX_FIELDS, "horizon")}) == BASELINE
    for k, typed in _ROUNDED_DRAWS.items():
        drawn = [getattr(draws[k], name) for name in (*BOX_FIELDS, "horizon")]
        assert [float(f"{x:.4g}") for x in drawn] == list(typed), k


@settings(
    max_examples=8,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    factors=st.tuples(*[_LOG_FACTOR] * len(BOX_FIELDS)),
    horizon=st.floats(*BOX_HORIZONS),
    functional=st.sampled_from(["new", "legacy"]),
)
def test_shooting_converges_and_agrees_with_the_sweep(factors, horizon, functional):
    scaled = {name: getattr(BASELINE, name) * math.exp(f) for name, f in zip(BOX_FIELDS, factors)}
    p = make_baseline_params(**scaled, horizon=horizon, functional=functional)
    cost = running_cost(p)
    shoot = solve_shooting(cost, p)
    sweep = solve_forward_backward(cost, p)
    assert shoot.converged and sweep.converged
    assert abs(shoot.objective - sweep.objective) / abs(sweep.objective) <= 1e-5
