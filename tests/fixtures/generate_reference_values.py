"""Recompute the frozen constants in reference_values.py.

The constants are frozen: this script reproduces each of them within
4e-15 relative, not bit for bit, so a regeneration rewrites their last
digits.  To compare, run from the repository root (scipy needed):

    PYTHONPATH=src python tests/fixtures/generate_reference_values.py > /tmp/reference_values.py
    diff /tmp/reference_values.py tests/fixtures/reference_values.py

and only when the constants are meant to change, replace the fixture
with the complete output:

    mv /tmp/reference_values.py tests/fixtures/reference_values.py

Redirecting straight into the fixture would empty it before the script
runs, and leave it empty if the script fails.

The constant-control objective comes from an integrator and quadrature
rule that share nothing with the package's RK4 path: scipy's adaptive
RK45 at tight tolerance sampled on one million nodes, then trapezoid.
"""

import numpy as np
from scipy.integrate import solve_ivp

from sircontrol.integrate import integrate_coupled
from sircontrol.model import BASELINE, running_cost
from sircontrol.solvers import solve_forward_backward, solve_shooting


def constant_control_objective_oracle(u1: float, u2: float) -> float:
    p = BASELINE
    cost = running_cost(p)

    def rhs(t, y):
        s, i = y
        infection = p.beta * s * i
        return [-infection - u1 * s, infection - u2 * i - p.alpha * i]

    t_eval = np.linspace(0.0, p.horizon, 10**6 + 1)
    sol = solve_ivp(rhs, (0.0, p.horizon), [p.s0, p.i0], method="RK45",
                    rtol=1e-12, atol=1e-12, t_eval=t_eval, dense_output=False)
    assert sol.success
    integrand = cost.w1 * u1**2 + cost.w2 * u2**2 + cost.a_i * sol.y[1]
    return float(np.trapezoid(integrand, t_eval))


def main() -> None:
    p = BASELINE
    cost = running_cost(p)

    obj_const = constant_control_objective_oracle(0.1, 0.1)

    start = integrate_coupled((0.0, 0.0), cost, p)
    r1, r2 = float(start.psi1[-1]), float(start.psi2[-1])

    shoot = solve_shooting(cost, p)
    assert shoot.converged
    fbs = solve_forward_backward(cost, p)
    assert fbs.converged
    rel_gap = abs(shoot.objective - fbs.objective) / abs(shoot.objective)
    assert rel_gap <= 1e-5, rel_gap

    print('"""Frozen reference constants; regenerate with generate_reference_values.py."""')
    print()
    print("# objective of the baseline scenario under constant controls u1 = u2 = 0.1,")
    print("# from scipy RK45 (rtol=atol=1e-12) + trapezoid on 1e6+1 nodes")
    print(f"CONSTANT_CONTROL_OBJECTIVE = {obj_const!r}")
    print()
    print("# terminal-costate residual of one coupled run from psi0 = (0, 0)")
    print(f"RESIDUAL_AT_ZERO_START = ({r1!r}, {r2!r})")
    print()
    print("# converged shooting objective, cross-validated against the")
    print(f"# forward-backward solver (relative gap {rel_gap:.3e})")
    print(f"SHOOTING_OBJECTIVE = {shoot.objective!r}")


if __name__ == "__main__":
    main()
