"""Solve one instance and walk through the solution.

The scenario: a 100-node network with 5 infected machines, a mildly
contagious virus (beta = 0.01), and a 1-in-10 chance per unit time that
an infected node is destroyed (alpha = 0.1).  Vaccination (u1) and
treatment (u2) are both capped at rate 0.9, weights (1, 1, 10) price
control effort against destroyed nodes, over a window of 10 time units.
"""

import numpy as np

from sircontrol import (
    ModelParams,
    decompose_objective,
    defective_terminal,
    evaluate_objective,
    integrate_state_forward,
    running_cost,
    solve_shooting,
)

params = ModelParams(
    beta=0.01, alpha=0.1, c1=1.0, c2=1.0, c3=10.0,
    u1_max=0.9, u2_max=0.9, horizon=10.0,
    s0=95.0, i0=5.0, r0=0.0,
)
cost = running_cost(params)

report = solve_shooting(cost, params)
traj = report.trajectory
print(f"converged:        {report.converged} "
      f"({report.newton_iters} Newton iterations, terminal-costate "
      f"residual {report.residual_norm:.2e})")
print(f"objective:        {report.objective:.6f}")

split = decompose_objective(traj)
print(f"  control effort: {split.control_cost:.6f}")
print(f"  node losses:    {split.state_cost:.6f} "
      f"(= c3 * D(T) = {params.c3} * {defective_terminal(traj):.6f})")

# How much the optimal schedule buys compared to doing nothing or
# running both controls flat out.
zeros = np.zeros(params.n_steps + 1)
do_nothing = evaluate_objective(integrate_state_forward(zeros, zeros, cost, params))
flat_out = evaluate_objective(
    integrate_state_forward(zeros + params.u1_max, zeros + params.u2_max, cost, params)
)
print(f"\ndo-nothing cost:  {do_nothing:.2f}")
print(f"flat-out cost:    {flat_out:.2f}")
print(f"optimal cost:     {report.objective:.2f}")

# The schedule itself: both controls start saturated, then back off as
# the epidemic is brought under control.
print("\n  t      S      I      R     D     u1     u2")
for k in range(0, params.n_steps + 1, params.n_steps // 10):
    print(f"{traj.t[k]:5.1f} {traj.s[k]:6.2f} {traj.i[k]:6.2f} "
          f"{traj.r[k]:6.2f} {traj.d[k]:5.2f} {traj.u1[k]:6.3f} {traj.u2[k]:6.3f}")

total = params.s0 + params.i0 + params.r0
drift = np.max(np.abs(traj.s + traj.i + traj.r + traj.d - total)) / total
print(f"\nnode-count conservation drift: {drift:.2e}")
