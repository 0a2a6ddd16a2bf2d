"""The built-in invariant suite as a library call, and its two measures."""

import numpy as np

from sircontrol import hamiltonian, integrate_state_forward, run_self_check, running_cost, solve_shooting
from sircontrol.selfcheck import conservation_drift, hamiltonian_spread

from conftest import make_baseline_params


def test_an_empty_population_passes_every_check():
    # Nothing to conserve: the drift is absolute, and exactly zero.
    results = run_self_check(make_baseline_params(s0=0.0, i0=0.0, r0=0.0))
    assert [(res.name, res.passed) for res in results] == [
        ("rk4-order", True), ("conservation", True), ("hamiltonian-constancy", True),
    ]
    assert results[1].detail == "max absolute drift 0.000e+00 (tolerance 1e-9)"
    assert run_self_check(make_baseline_params())[1].detail.startswith("max relative drift ")


def test_conservation_drift_is_criterion_02s_formula_and_absolute_on_an_empty_population():
    p, empty = make_baseline_params(), make_baseline_params(s0=0.0, i0=0.0, r0=0.0)
    u1, u2 = np.random.default_rng(101).uniform(0.0, p.u1_max, (2, p.n_steps + 1))
    traj = integrate_state_forward(u1, u2, running_cost(p), p)
    total0 = p.s0 + p.i0 + p.r0
    want = float(np.max(np.abs(traj.s + traj.i + traj.r + traj.d - total0))) / total0
    assert 0.0 < conservation_drift(traj) == want
    assert conservation_drift(integrate_state_forward(u1, u2, running_cost(empty), empty)) == 0.0


def test_hamiltonian_spread_is_criterion_07s_formula():
    p = make_baseline_params(n_steps=4000)
    cost = running_cost(p)
    traj = solve_shooting(cost, p).trajectory
    values = hamiltonian(traj.s, traj.i, traj.psi1, traj.psi2, traj.u1, traj.u2,
                         p.beta, p.alpha, cost.a_i, cost.w1, cost.w2)
    want = float((values.max() - values.min()) / (1.0 + abs(values.mean())))
    assert 0.0 < hamiltonian_spread(traj, cost, p) == want
