import math

import numpy as np
import pytest

from sircontrol import (
    ModelParams,
    NonFiniteError,
    RunningCost,
    Trajectory,
    adjoint_rhs,
    optimal_controls,
    running_cost,
    state_rhs,
)
from sircontrol.solvers import _seed


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
    (S, I, psi1, psi2) are carried; the costate sums are compensated as
    the pass compensates them."""
    h = p.horizon / p.n_steps
    h2, h6 = h / 2.0, h / 6.0

    def slopes(s, i, p1, p2):
        u1, u2 = optimal_controls(s, i, p1, p2, cost.w1, cost.w2, p.u1_max, p.u2_max)
        ds, di, _, _, _, _ = state_rhs(s, i, u1, u2, p.beta, p.alpha, cost.a_i, cost.w1, cost.w2)
        return (ds, di) + adjoint_rhs(s, i, p1, p2, u1, u2, p.beta, p.alpha, cost.a_i)

    s, i, p1, p2 = p.s0, p.i0, Dual(float(psi0[0]), 1.0), Dual(float(psi0[1]), 0.0, 1.0)
    c1 = c2 = 0.0
    for _ in range(p.n_steps):
        x = (s, i, p1, p2)
        k1 = slopes(*x)
        k2 = slopes(*(v + h2 * k for v, k in zip(x, k1)))
        k3 = slopes(*(v + h2 * k for v, k in zip(x, k2)))
        k4 = slopes(*(v + h * k for v, k in zip(x, k3)))
        ds, di, dp1, dp2 = (h6 * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4))
        s, i = s + ds, i + di
        y1, y2 = dp1 - c1, dp2 - c2
        t1, t2 = p1 + y1, p2 + y2
        c1, c2 = (t1 - p1) - y1, (t2 - p2) - y2
        p1, p2 = t1, t2
    return p1, p2


def adjoint_backward_reference(state_traj: Trajectory, cost: RunningCost, p: ModelParams, linear: bool = False):
    """integrate_adjoint_backward as a scalar RK4 loop, four adjoint_rhs
    calls per step, with the same Hermite midpoints and control reading:
    the reference for the pass's affine step maps."""
    n = p.n_steps
    h = p.horizon / n
    h2, h6, h8 = h / 2.0, h / 6.0, h / 8.0
    beta, alpha, a_i = p.beta, p.alpha, cost.a_i
    s, i = state_traj.s.tolist(), state_traj.i.tolist()

    def reading(u):
        start = u[:-1].tolist()
        if not linear:
            return start, start, start
        end = u[1:].tolist()
        return start, [0.5 * (a + b) for a, b in zip(start, end)], end

    a1, m1, b1 = reading(state_traj.u1)
    a2, m2, b2 = reading(state_traj.u2)

    def midpoint(k):
        fs_l, fi_l, _, _, _, _ = state_rhs(s[k], i[k], a1[k], a2[k], beta, alpha, a_i, cost.w1, cost.w2)
        fs_r, fi_r, _, _, _, _ = state_rhs(s[k + 1], i[k + 1], b1[k], b2[k], beta, alpha, a_i, cost.w1, cost.w2)
        return 0.5 * (s[k] + s[k + 1]) + h8 * (fs_l - fs_r), 0.5 * (i[k] + i[k + 1]) + h8 * (fi_l - fi_r)

    p1 = p2 = 0.0
    rows = [(p1, p2)]
    for k in range(n - 1, -1, -1):
        s_m, i_m = midpoint(k)
        k1p1, k1p2 = adjoint_rhs(s[k + 1], i[k + 1], p1, p2, b1[k], b2[k], beta, alpha, a_i)
        k2p1, k2p2 = adjoint_rhs(s_m, i_m, p1 - h2 * k1p1, p2 - h2 * k1p2, m1[k], m2[k], beta, alpha, a_i)
        k3p1, k3p2 = adjoint_rhs(s_m, i_m, p1 - h2 * k2p1, p2 - h2 * k2p2, m1[k], m2[k], beta, alpha, a_i)
        k4p1, k4p2 = adjoint_rhs(s[k], i[k], p1 - h * k3p1, p2 - h * k3p2, a1[k], a2[k], beta, alpha, a_i)
        p1 = p1 - h6 * (k1p1 + 2.0 * k2p1 + 2.0 * k3p1 + k4p1)
        p2 = p2 - h6 * (k1p2 + 2.0 * k2p2 + 2.0 * k3p2 + k4p2)
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise NonFiniteError(k * h)
        rows.append((p1, p2))
    psi1, psi2 = np.array(rows[::-1]).T
    return psi1, psi2


@pytest.fixture(autouse=True)
def cold_seed_memo():
    """Every test starts, and leaves the next one, with no seed sweep
    cached: a seed cached under one test's patched integrators would
    change another's counts and failures."""
    _seed.cache_clear()
    yield
    _seed.cache_clear()


@pytest.fixture
def baseline_params() -> ModelParams:
    return make_baseline_params()


@pytest.fixture
def baseline_cost(baseline_params):
    return running_cost(baseline_params)
