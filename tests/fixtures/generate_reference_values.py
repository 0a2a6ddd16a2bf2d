"""Regenerate the frozen constants in reference_values.py.

Run from the repository root:

    python tests/fixtures/generate_reference_values.py > tests/fixtures/reference_values.py

The constant-control objective comes from an integrator and quadrature
rule that share nothing with the package's RK4 path: scipy's adaptive
RK45 at tight tolerance sampled on one million nodes, then trapezoid.
"""

import numpy as np
from scipy.integrate import solve_ivp

from sircontrol.model import BASELINE, running_cost
from sircontrol.solvers import shooting_residual, solve_forward_backward, solve_shooting


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

    r1, r2 = shooting_residual((0.0, 0.0), cost, p)

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
