"""The forward passes run to their last node and look for divergence once.

conftest's state_forward_reference and coupled_reference test S, I, z and
the costates after every step and raise at the first step that fails.
On inputs that overflow, each pass must raise at the same time as its
reference, and otherwise return the same arrays.  Hypothesis draws a few
hundred 200-step inputs, the same ones every run.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from sircontrol import NonFiniteError, RunningCost, integrate_coupled, integrate_state_forward

from conftest import coupled_reference, make_baseline_params, state_forward_reference

FIELDS = ("t", "s", "i", "r", "d", "z", "z_control", "u1", "u2", "psi1", "psi2")


def outcome(integrate, *args, **kwargs):
    """The pass's trajectory, or the time of its NonFiniteError."""
    try:
        return integrate(*args, **kwargs)
    except NonFiniteError as err:
        return err.time


def assert_same_outcome(got, ref):
    assert type(got) is type(ref)
    if isinstance(ref, float):
        assert got == ref
    else:
        for name in FIELDS:
            a, b = getattr(got, name), getattr(ref, name)
            assert (a is None and b is None) or np.array_equal(a, b), name


_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)
_BETA = st.floats(0.0, 0.1)
# Magnitudes drawn by their exponent, near where they overflow: a state
# weight of 1e300 to 1e307 overflows z, sooner or later or not at all,
# and costates of 1e290 to 1e308 the coupled pass's costates.
_A_I = st.floats(300.0, 307.0).map(lambda e: 10.0**e)
_PSI = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(290.0, 308.0)).map(lambda x: x[0] * 10.0**x[1])


@_SETTINGS
@given(beta=_BETA, a_i=_A_I, psi0=st.tuples(_PSI, _PSI))
def test_the_coupled_pass_raises_where_its_loop_does(beta, a_i, psi0):
    p = make_baseline_params(beta=beta, n_steps=200)
    cost = RunningCost(a_i=a_i, w1=1.0, w2=1.0)
    assert_same_outcome(outcome(integrate_coupled, psi0, cost, p), outcome(coupled_reference, psi0, cost, p))


# Negative vaccination rates grow S, down to -300 until it overflows
# within the horizon; per-node rates come from a drawn seed.
@_SETTINGS
@given(beta=_BETA, a_i=_A_I, lowest=st.floats(-300.0, 0.9), seed=st.integers(0, 2**32 - 1),
       linear=st.booleans())
def test_the_state_pass_raises_where_its_loop_does(beta, a_i, lowest, seed, linear):
    p = make_baseline_params(beta=beta, n_steps=200)
    cost = RunningCost(a_i=a_i, w1=1.0, w2=1.0)
    rng = np.random.default_rng(seed)
    u1, u2 = rng.uniform(lowest, 0.9, 201), rng.uniform(0.0, 0.9, 201)
    assert_same_outcome(outcome(integrate_state_forward, u1, u2, cost, p, linear=linear),
                        outcome(state_forward_reference, u1, u2, cost, p, linear=linear))


@pytest.mark.parametrize("linear", [False, True])
def test_a_schedule_whose_node_means_overflow_raises_non_finite(linear):
    # Nodes of 1e308 overflow the linear reading's means of two nodes; that
    # reading must diverge quietly and raise where the held one does.
    p = make_baseline_params(n_steps=200)
    u = np.full(201, 1e308)
    with pytest.raises(NonFiniteError) as err:
        integrate_state_forward(u, u, RunningCost(a_i=1.0, w1=1.0, w2=1.0), p, linear=linear)
    assert err.value.time == 0.05
