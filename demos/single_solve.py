"""Solve one instance and walk through the solution.

The scenario: a 100-node network with 5 infected machines, a mildly
contagious virus (beta = 0.01), and a 1-in-10 chance per unit time that
an infected node is destroyed (alpha = 0.1).  Vaccination (u1) and
treatment (u2) are both capped at rate 0.9, weights (1, 1, 10) price
control effort against destroyed nodes, over a window of 10 time units.
"""

import numpy as np

from sircontrol import BASELINE, integrate_state_forward, running_cost, solve_shooting
from sircontrol.selfcheck import conservation_drift

params = BASELINE
cost = running_cost(params)

report = solve_shooting(cost, params)
traj = report.trajectory
print(f"converged:        {report.converged} "
      f"({report.newton_iters} Newton iterations, terminal-costate "
      f"residual {report.residual_norm:.2e})")
print(f"objective:        {report.objective:.6f}")

# The trajectory carries the cost split: z_control is the control
# effort, the rest of z the state load, and d[-1] is D(T).
control = traj.z_control[-1]
print(f"  control effort: {control:.6f}")
print(f"  node losses:    {traj.z[-1] - control:.6f} "
      f"(= c3 * D(T) = {params.c3} * {traj.d[-1]:.6f})")

# How much the optimal schedule buys compared to doing nothing or
# running both controls flat out.
zeros = np.zeros(params.n_steps + 1)
do_nothing = integrate_state_forward(zeros, zeros, cost, params).z[-1]
flat_out = integrate_state_forward(zeros + params.u1_max, zeros + params.u2_max, cost, params).z[-1]
print(f"\ndo-nothing cost:  {do_nothing:.2f}")
print(f"flat-out cost:    {flat_out:.2f}")
print(f"optimal cost:     {report.objective:.2f}")

# The schedule itself: both controls start saturated, then back off as
# the epidemic is brought under control.
print("\n  t      S      I      R     D     u1     u2")
for k in range(0, params.n_steps + 1, params.n_steps // 10):
    print(f"{traj.t[k]:5.1f} {traj.s[k]:6.2f} {traj.i[k]:6.2f} "
          f"{traj.r[k]:6.2f} {traj.d[k]:5.2f} {traj.u1[k]:6.3f} {traj.u2[k]:6.3f}")

print(f"\nnode-count conservation drift: {conservation_drift(traj):.2e}")
