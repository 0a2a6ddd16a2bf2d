"""Every cross-check the solver is held to, run on one scenario.

Nothing here trusts the shooting solver's own arithmetic: the
forward-backward sweep iterates a different fixed point, the brute-force
enumeration integrates thousands of schedules the dumb way, and the
adjoint gradient is compared against plain finite differences.
"""

import numpy as np

from sircontrol import (
    ModelParams,
    brute_force_best,
    control_gradient,
    evaluate_objective,
    expand_piecewise_schedule,
    integrate_state_forward,
    interval_boundaries,
    running_cost,
    solve_forward_backward,
    solve_shooting,
)

params = ModelParams(
    beta=0.01, alpha=0.1, c1=1.0, c2=1.0, c3=10.0,
    u1_max=0.9, u2_max=0.9, horizon=10.0,
    s0=95.0, i0=5.0, r0=0.0,
)
cost = running_cost(params)

# 1. Two discretizations, one answer.  The sweep picks shooting's start,
# but shooting converges to the root of its own coupled-pass residual.
shoot = solve_shooting(cost, params)
sweep = solve_forward_backward(cost, params)
gap = abs(shoot.objective - sweep.objective) / abs(shoot.objective)
print(f"shooting objective:         {shoot.objective:.8f}")
print(f"forward-backward objective: {sweep.objective:.8f}")
print(f"relative disagreement:      {gap:.2e}")

# 2. Exhaustive search over 4096 piecewise-constant schedules.  The
# restricted class can never beat the true optimum, and how much it
# loses measures what schedule flexibility is worth here.
oracle = brute_force_best(cost, params, n_intervals=3, levels_per_control=4)
print(f"\nbest of {oracle.n_schedules} coarse schedules: {oracle.objective:.6f}")
print(f"  u1 per third of the horizon: {oracle.u1_levels}")
print(f"  u2 per third of the horizon: {oracle.u2_levels}")
print(f"solver beats the enumeration: {shoot.objective <= oracle.objective}")
print(f"coarse-schedule premium:      "
      f"{100.0 * (oracle.objective / shoot.objective - 1.0):.1f}%")

# 3. Adjoint gradient vs central finite differences on a random
# 6-interval schedule.
rng = np.random.default_rng(0)
m = 6
u1 = rng.uniform(0.05, 0.85, m)
u2 = rng.uniform(0.05, 0.85, m)
g1, g2 = control_gradient(u1, u2, cost, params)
bounds = interval_boundaries(params.n_steps, m)


def objective(u1v, u2v):
    traj = integrate_state_forward(
        expand_piecewise_schedule(u1v, bounds, params.n_steps),
        expand_piecewise_schedule(u2v, bounds, params.n_steps),
        cost, params,
    )
    return evaluate_objective(traj)


step = 1e-4
worst = 0.0
for j in range(m):
    up, um = u1.copy(), u1.copy()
    up[j] += step
    um[j] -= step
    fd = (objective(up, u2) - objective(um, u2)) / (2.0 * step)
    worst = max(worst, abs(g1[j] - fd) / abs(fd))
print(f"\nworst adjoint-vs-FD gradient error (u1 components): {worst:.2e}")
