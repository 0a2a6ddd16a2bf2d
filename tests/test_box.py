"""Shooting across the declared parameter box, cross-checked by the sweep.

The box: factors 0.5-2, log-uniform, on beta, alpha, c1, c2 and c3 of the
baseline (0.01, 0.1, 1, 1, 10); horizons 5 to 18; both functionals; 2000
steps.  Hypothesis draws a few scenarios from it, the same ones every run.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from sircontrol import running_cost, solve_forward_backward, solve_shooting

from conftest import make_baseline_params

_LOG_FACTOR = st.floats(math.log(0.5), math.log(2.0))


@settings(
    max_examples=8,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    factors=st.tuples(*[_LOG_FACTOR] * 5),
    horizon=st.floats(5.0, 18.0),
    functional=st.sampled_from(["new", "legacy"]),
)
def test_shooting_converges_and_agrees_with_the_sweep(factors, horizon, functional):
    beta, alpha, c1, c2, c3 = (math.exp(f) for f in factors)
    p = make_baseline_params(
        beta=0.01 * beta, alpha=0.1 * alpha, c1=c1, c2=c2, c3=10.0 * c3,
        horizon=horizon, functional=functional,
    )
    cost = running_cost(p)
    shoot = solve_shooting(cost, p)
    sweep = solve_forward_backward(cost, p)
    assert shoot.converged and sweep.converged
    assert abs(shoot.objective - sweep.objective) / abs(sweep.objective) <= 1e-5
