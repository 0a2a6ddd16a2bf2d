import numpy as np
import pytest

from sircontrol import (
    ModelParams,
    RunningCost,
    Trajectory,
    adjoint_rhs,
    optimal_controls,
    running_cost,
    state_rhs,
)


def make_baseline_params(**overrides) -> ModelParams:
    """The desk-scale scenario most tests and the acceptance gate share."""
    base = dict(
        beta=0.01, alpha=0.1, c1=1.0, c2=1.0, c3=10.0,
        u1_max=0.9, u2_max=0.9, horizon=10.0, s0=95.0, i0=5.0, r0=0.0,
        n_steps=2000, functional="new",
    )
    base.update(overrides)
    return ModelParams(**base)


def evaluate_objective_trapezoid(traj: Trajectory, cost: RunningCost) -> float:
    """Trapezoid quadrature of the sampled integrand: an O(h^2) reference for z[-1]."""
    # The running cost (state_rhs's dz) does not depend on beta or alpha.
    _, _, _, _, g, _ = state_rhs(traj.s, traj.i, traj.u1, traj.u2, 0.0, 0.0, cost.a_i, cost.w1, cost.w2)
    h = traj.t[1] - traj.t[0]
    return float(h * (np.sum(g) - 0.5 * (g[0] + g[-1])))


class Dual:
    """x + d1*e1 + d2*e2 with e1*e1 = e1*e2 = e2*e2 = 0: forward-mode
    derivatives in two inputs.  The real part takes exactly the float
    operations a float would, and comparisons read it alone."""

    __slots__ = ("x", "d1", "d2")

    def __init__(self, x, d1=0.0, d2=0.0):
        self.x, self.d1, self.d2 = x, d1, d2

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.x + o.x, self.d1 + o.d1, self.d2 + o.d2)
        return Dual(self.x + o, self.d1, self.d2)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.x * o.x, self.d1 * o.x + self.x * o.d1, self.d2 * o.x + self.x * o.d2)
        return Dual(self.x * o, self.d1 * o, self.d2 * o)

    def __truediv__(self, o):  # by a float only
        return Dual(self.x / o, self.d1 / o, self.d2 / o)

    def __neg__(self):
        return Dual(-self.x, -self.d1, -self.d2)

    def __le__(self, o):
        return self.x <= o

    def __ge__(self, o):
        return self.x >= o

    __radd__, __rmul__ = __add__, __mul__


def dual_terminal_costates(psi0, cost: RunningCost, p: ModelParams) -> tuple[Dual, Dual]:
    """psi(T) of integrate_coupled's RK4 pass from psi0, on Dual numbers
    seeded with d/dpsi1(0) and d/dpsi2(0): a reference for the exact
    shooting Jacobian, independent of the model's hand-derived
    linearization.  R, D and the cost do not feed back, so only
    (S, I, psi1, psi2) are carried."""
    h = p.horizon / p.n_steps
    h2, h6 = h / 2.0, h / 6.0

    def slopes(s, i, p1, p2):
        u1, u2 = optimal_controls(s, i, p1, p2, cost.w1, cost.w2, p.u1_max, p.u2_max)
        ds, di, _, _, _, _ = state_rhs(s, i, u1, u2, p.beta, p.alpha, cost.a_i, cost.w1, cost.w2)
        return (ds, di) + adjoint_rhs(s, i, p1, p2, u1, u2, p.beta, p.alpha, cost.a_i)

    x = (p.s0, p.i0, Dual(float(psi0[0]), 1.0), Dual(float(psi0[1]), 0.0, 1.0))
    for _ in range(p.n_steps):
        k1 = slopes(*x)
        k2 = slopes(*(v + h2 * k for v, k in zip(x, k1)))
        k3 = slopes(*(v + h2 * k for v, k in zip(x, k2)))
        k4 = slopes(*(v + h * k for v, k in zip(x, k3)))
        x = tuple(v + h6 * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(x, k1, k2, k3, k4))
    return x[2], x[3]


@pytest.fixture
def baseline_params() -> ModelParams:
    return make_baseline_params()


@pytest.fixture
def baseline_cost(baseline_params):
    return running_cost(baseline_params)
