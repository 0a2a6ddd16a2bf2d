"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they stream.  Every tolerance is asserted exactly as stated; the printed
details carry the measured values.
"""

import time
from dataclasses import replace

import numpy as np

from sircontrol import (
    ModelParams,
    brute_force_best,
    control_gradient,
    expand_piecewise_schedule,
    hamiltonian,
    integrate_state_forward,
    running_cost,
    solve_forward_backward,
    solve_shooting,
    sweep_alpha,
)
from sircontrol.cli import main


def baseline(**overrides) -> ModelParams:
    base = dict(
        beta=0.01, alpha=0.1, c1=1.0, c2=1.0, c3=10.0,
        u1_max=0.9, u2_max=0.9, horizon=10.0, s0=95.0, i0=5.0, r0=0.0,
        n_steps=2000, functional="new",
    )
    base.update(overrides)
    return ModelParams(**base)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_rk4_order():
    def max_error(n_steps):
        p = baseline(beta=0.0, alpha=0.2, n_steps=n_steps)
        zeros = np.zeros(n_steps + 1)
        traj = integrate_state_forward(zeros, zeros, running_cost(p), p)
        return float(np.max(np.abs(traj.i - p.i0 * np.exp(-p.alpha * traj.t))))

    start = time.perf_counter()
    ratio = max_error(500) / max_error(1000)
    elapsed = time.perf_counter() - start
    ok = 14.0 <= ratio <= 18.0 and elapsed < 0.1
    report(1, ok, f"halving-h error ratio {ratio:.2f} in [14, 18], runtime {elapsed*1e3:.1f} ms < 100 ms")
    assert ok


def test_criterion_02_conservation():
    p = baseline()
    cost = running_cost(p)
    total0 = p.s0 + p.i0 + p.r0
    rng = np.random.default_rng(101)
    worst = 0.0
    schedules = [
        (np.zeros(p.n_steps + 1), np.zeros(p.n_steps + 1)),
        (np.full(p.n_steps + 1, p.u1_max), np.full(p.n_steps + 1, p.u2_max)),
        (rng.uniform(0, p.u1_max, p.n_steps + 1), rng.uniform(0, p.u2_max, p.n_steps + 1)),
    ]
    for u1, u2 in schedules:
        traj = integrate_state_forward(u1, u2, cost, p)
        drift = float(np.max(np.abs(traj.s + traj.i + traj.r + traj.d - total0))) / total0
        worst = max(worst, drift)
    ok = worst <= 1e-9
    report(2, ok, f"max relative drift {worst:.2e} <= 1e-9 over 3 schedules")
    assert ok


def test_criterion_03_shooting_convergence():
    p = baseline()
    cost = running_cost(p)
    start = time.perf_counter()
    rep = solve_shooting(cost, p)
    elapsed = time.perf_counter() - start
    ok = rep.converged and rep.residual_norm <= 1e-10 and rep.newton_iters <= 30 and elapsed < 1.0
    report(3, ok, (
        f"residual {rep.residual_norm:.2e} <= 1e-10, {rep.newton_iters} Newton iters <= 30, "
        f"runtime {elapsed:.2f} s < 1 s"
    ))
    assert ok


def test_criterion_04_solver_cross_agreement():
    base = baseline()
    rng = np.random.default_rng(20260808)
    scenarios = [base]
    for _ in range(5):
        factors = rng.uniform(0.8, 1.2, 5)
        scenarios.append(replace(
            base,
            beta=base.beta * factors[0],
            alpha=base.alpha * factors[1],
            c1=base.c1 * factors[2],
            c2=base.c2 * factors[3],
            c3=base.c3 * factors[4],
        ))
    worst = 0.0
    all_converged = True
    for p in scenarios:
        cost = running_cost(p)
        shoot = solve_shooting(cost, p)
        sweep = solve_forward_backward(cost, p)
        all_converged &= shoot.converged and sweep.converged
        if shoot.converged and sweep.converged:
            worst = max(worst, abs(shoot.objective - sweep.objective) / abs(shoot.objective))
    ok = all_converged and worst <= 1e-5
    report(4, ok, f"6 scenarios converged={all_converged}, worst relative gap {worst:.2e} <= 1e-5")
    assert ok


def test_criterion_05_oracle_bound():
    p = baseline()
    cost = running_cost(p)
    pmp = solve_shooting(cost, p)
    start = time.perf_counter()
    oracle = brute_force_best(cost, p, n_intervals=3, levels_per_control=4)
    elapsed = time.perf_counter() - start
    lower_ok = pmp.objective <= oracle.objective + 1e-9 * abs(oracle.objective)
    upper_ok = oracle.objective <= pmp.objective * 1.05
    runtime_ok = elapsed < 30.0
    ok = pmp.converged and lower_ok and upper_ok and runtime_ok
    report(5, ok, (
        f"PMP {pmp.objective:.6f} <= oracle {oracle.objective:.6f} (+1e-9): {lower_ok}; "
        f"oracle <= 1.05*PMP (ratio {oracle.objective / pmp.objective:.4f}): {upper_ok}; "
        f"{oracle.n_schedules} schedules in {elapsed:.1f} s < 30 s: {runtime_ok}"
    ))
    assert ok


def test_criterion_06_gradient_check():
    p = baseline()
    cost = running_cost(p)
    rng = np.random.default_rng(42)
    m = 6
    u1 = rng.uniform(0.05, 0.85, m)
    u2 = rng.uniform(0.05, 0.85, m)
    g1, g2 = control_gradient(u1, u2, cost, p)

    def objective(u1v, u2v):
        traj = integrate_state_forward(
            expand_piecewise_schedule(u1v, p.n_steps),
            expand_piecewise_schedule(u2v, p.n_steps),
            cost, p,
        )
        return float(traj.z[-1])

    step = 1e-4
    worst = 0.0
    for j in range(m):
        for grad, pick in ((g1, 0), (g2, 1)):
            plus = [u1.copy(), u2.copy()]
            minus = [u1.copy(), u2.copy()]
            plus[pick][j] += step
            minus[pick][j] -= step
            fd = (objective(*plus) - objective(*minus)) / (2.0 * step)
            worst = max(worst, abs(grad[j] - fd) / max(abs(fd), 1e-12))
    ok = worst <= 1e-3
    report(6, ok, f"worst adjoint-vs-central-FD relative error {worst:.2e} <= 1e-3 (12 components)")
    assert ok


def test_criterion_07_hamiltonian_constancy():
    p = baseline(n_steps=4000)
    cost = running_cost(p)
    rep = solve_shooting(cost, p)
    traj = rep.trajectory
    values = hamiltonian(
        traj.s, traj.i, traj.psi1, traj.psi2, traj.u1, traj.u2,
        p.beta, p.alpha, cost.a_i, cost.w1, cost.w2,
    )
    spread = float((values.max() - values.min()) / (1.0 + abs(values.mean())))
    ok = rep.converged and spread <= 1e-5
    report(7, ok, f"normalized Hamiltonian spread {spread:.2e} <= 1e-5 at n_steps = 4000")
    assert ok


def test_criterion_08_alpha_sweep_defect_reproduction():
    p = baseline()
    alphas = [float(a) for a in np.linspace(0.05, 0.5, 10)]
    start = time.perf_counter()
    rows = sweep_alpha(p, alphas)
    elapsed = time.perf_counter() - start
    all_converged = all(r.converged_new and r.converged_legacy for r in rows)
    legacy = [r.objective_legacy for r in rows]
    new = [r.objective_new for r in rows]
    legacy_decreasing = all(b < a for a, b in zip(legacy, legacy[1:]))
    new_non_decreasing = all(b >= a for a, b in zip(new, new[1:]))
    runtime_ok = elapsed < 30.0
    ok = all_converged and legacy_decreasing and new_non_decreasing and runtime_ok
    report(8, ok, (
        f"20/20 solves converged={all_converged}, legacy strictly decreasing={legacy_decreasing}, "
        f"new non-decreasing={new_non_decreasing}, runtime {elapsed:.1f} s < 30 s"
    ))
    assert ok


def test_criterion_09_trivial_optimum_exactness():
    p_zero_alpha = baseline(alpha=0.0)
    rep = solve_shooting(running_cost(p_zero_alpha), p_zero_alpha)
    zero_alpha_ok = (
        rep.converged
        and rep.objective == 0.0
        and bool(np.all(rep.trajectory.u1 == 0.0))
        and bool(np.all(rep.trajectory.u2 == 0.0))
    )

    p_no_control = baseline(u1_max=0.0, u2_max=0.0)
    cost = running_cost(p_no_control)
    rep2 = solve_shooting(cost, p_no_control)
    zeros = np.zeros(p_no_control.n_steps + 1)
    uncontrolled = float(integrate_state_forward(zeros, zeros, cost, p_no_control).z[-1])
    no_control_ok = rep2.converged and rep2.objective == uncontrolled
    ok = zero_alpha_ok and no_control_ok
    report(9, ok, (
        f"alpha=0 objective exactly 0 with u == 0: {zero_alpha_ok}; "
        f"u_max=0 returns uncontrolled objective exactly: {no_control_ok}"
    ))
    assert ok


def test_criterion_10_sweep_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "beta = 0.01\nalpha = 0.1\nc1 = 1\nc2 = 1\nc3 = 10\n"
        "u1_max = 0.9\nu2_max = 0.9\nhorizon = 10\ns0 = 95\ni0 = 5\nr0 = 0\n"
        "n_steps = 400\nalpha_points = 3\nalpha_max = 0.3\n"
    )
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    code1 = main(["sweep", "--config", str(cfg), "--out", str(out1)])
    code2 = main(["sweep", "--config", str(cfg), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(10, ok, f"two sweep runs byte-identical CSV: {identical} (exit codes {code1}, {code2})")
    assert ok
