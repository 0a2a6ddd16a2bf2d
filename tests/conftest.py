import math
from dataclasses import replace

import numpy as np
import pytest

from sircontrol import (
    BASELINE,
    ModelParams,
    NonFiniteError,
    RunningCost,
    Trajectory,
    adjoint_rhs,
    control_effort,
    cost_rate,
    dynamics_rhs,
    optimal_controls,
    removed_rhs,
    running_cost,
)


def make_baseline_params(**overrides) -> ModelParams:
    """The baseline scenario most tests and the acceptance gate share, with overrides."""
    return replace(BASELINE, **overrides)


# The declared parameter box: log-uniform factors on BOX_FIELDS of
# BASELINE, and horizons T, both within these bounds.
BOX_FIELDS = ("beta", "alpha", "c1", "c2", "c3")
BOX_FACTORS = (0.5, 2.0)
BOX_HORIZONS = (5.0, 18.0)


def box_draws() -> list[ModelParams]:
    """The box's catalogue: 100 draws from one default_rng(55), each its
    factors exp(uniform(log BOX_FACTORS)) on BOX_FIELDS and then
    T ~ uniform(BOX_HORIZONS), on BASELINE (new functional, 2000 steps)."""
    rng = np.random.default_rng(55)
    low, high = (math.log(f) for f in BOX_FACTORS)
    draws = []
    for _ in range(100):
        factors = np.exp(rng.uniform(low, high, len(BOX_FIELDS)))
        scaled = {name: getattr(BASELINE, name) * f for name, f in zip(BOX_FIELDS, factors)}
        draws.append(replace(BASELINE, **scaled, horizon=rng.uniform(*BOX_HORIZONS)))
    return draws


def criterion_04_scenarios(functional):
    """The baseline and the five draws of acceptance criterion 04."""
    base = make_baseline_params(functional=functional)
    draws = np.random.default_rng(20260808).uniform(0.8, 1.2, (5, 5))
    return [base] + [replace(base, beta=base.beta * f[0], alpha=base.alpha * f[1], c1=base.c1 * f[2],
                             c2=base.c2 * f[3], c3=base.c3 * f[4]) for f in draws]


def evaluate_objective_trapezoid(traj: Trajectory, cost: RunningCost) -> float:
    """Trapezoid quadrature of the sampled integrand: an O(h^2) reference for z[-1]."""
    g = cost_rate(control_effort(traj.u1, traj.u2, cost.w1, cost.w2), traj.i, cost.a_i)
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
        return dynamics_rhs(s, i, u1, u2, p.beta, p.alpha) + adjoint_rhs(s, i, p1, p2, u1, u2, p.beta, p.alpha, cost.a_i)

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


def schedule_reading(u, linear: bool):
    """Per-step (start, middle, end) controls of a node schedule, as lists."""
    start = u[:-1].tolist()
    if not linear:
        return start, start, start
    end = u[1:].tolist()
    return start, [0.5 * (a + b) for a, b in zip(start, end)], end


def adjoint_backward_reference(state_traj: Trajectory, cost: RunningCost, p: ModelParams):
    """integrate_adjoint_backward as a scalar RK4 loop, four adjoint_rhs
    calls per step, with the same Hermite midpoints and linear control
    reading: the reference for the pass's affine step maps."""
    n = p.n_steps
    h = p.horizon / n
    h2, h6, h8 = h / 2.0, h / 6.0, h / 8.0
    beta, alpha, a_i = p.beta, p.alpha, cost.a_i
    s, i = state_traj.s.tolist(), state_traj.i.tolist()

    a1, m1, b1 = schedule_reading(state_traj.u1, True)
    a2, m2, b2 = schedule_reading(state_traj.u2, True)

    def midpoint(k):
        fs_l, fi_l = dynamics_rhs(s[k], i[k], a1[k], a2[k], beta, alpha)
        fs_r, fi_r = dynamics_rhs(s[k + 1], i[k + 1], b1[k], b2[k], beta, alpha)
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


def augmented_rhs(s, i, u1, u2, beta, alpha, a_i, w1, w2):
    """(dS, dI, dR, dD, dz, dz_control): the six equations the forward
    reference loops step together."""
    dzc = control_effort(u1, u2, w1, w2)
    return (*dynamics_rhs(s, i, u1, u2, beta, alpha), *removed_rhs(s, i, u1, u2, alpha),
            cost_rate(dzc, i, a_i), dzc)


def state_forward_reference(u1_schedule, u2_schedule, cost: RunningCost, p: ModelParams,
                            linear: bool = False) -> Trajectory:
    """integrate_state_forward as the scalar RK4 loop that steps R, D, z
    and z_control with S and I and checks S, I and z after every step:
    the reference for the pass's quadratures."""
    n = p.n_steps
    u1_arr, u2_arr = np.asarray(u1_schedule, dtype=float), np.asarray(u2_schedule, dtype=float)
    h = p.horizon / n
    h2, h6 = h / 2.0, h / 6.0
    beta, alpha, a_i, w1, w2 = p.beta, p.alpha, cost.a_i, cost.w1, cost.w2

    rhs = augmented_rhs
    s, i, r, d, z, zc = p.s0, p.i0, p.r0, 0.0, 0.0, 0.0
    rows = [(s, i, r, d, z, zc)]
    for a1, m1, b1, a2, m2, b2 in zip(*schedule_reading(u1_arr, linear), *schedule_reading(u2_arr, linear)):
        k1s, k1i, k1r, k1d, k1z, k1c = rhs(s, i, a1, a2, beta, alpha, a_i, w1, w2)
        k2s, k2i, k2r, k2d, k2z, k2c = rhs(s + h2 * k1s, i + h2 * k1i, m1, m2, beta, alpha, a_i, w1, w2)
        k3s, k3i, k3r, k3d, k3z, k3c = rhs(s + h2 * k2s, i + h2 * k2i, m1, m2, beta, alpha, a_i, w1, w2)
        k4s, k4i, k4r, k4d, k4z, k4c = rhs(s + h * k3s, i + h * k3i, b1, b2, beta, alpha, a_i, w1, w2)
        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        r = r + h6 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        d = d + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        zc = zc + h6 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (math.isfinite(s) and math.isfinite(i) and math.isfinite(z)):
            raise NonFiniteError(len(rows) * h)
        rows.append((s, i, r, d, z, zc))
    ss, ii, rr, dd, zz, zzc = np.array(rows).T
    return Trajectory(t=np.arange(n + 1) * h, s=ss, i=ii, r=rr, d=dd, z=zz, z_control=zzc,
                      u1=u1_arr.copy(), u2=u2_arr.copy())


def coupled_reference(psi0, cost: RunningCost, p: ModelParams) -> Trajectory:
    """integrate_coupled as the scalar RK4 loop that steps R, D, z and
    z_control with the state and Kahan-compensated costates and checks S,
    I, psi and z after every step: the reference for the pass's
    quadratures."""
    n = p.n_steps
    h = p.horizon / n
    h2, h6 = h / 2.0, h / 6.0
    beta, alpha, a_i, w1, w2 = p.beta, p.alpha, cost.a_i, cost.w1, cost.w2
    rhs = augmented_rhs

    def law(s, i, p1, p2):
        return optimal_controls(s, i, p1, p2, w1, w2, p.u1_max, p.u2_max)

    s, i, r, d, z, zc = p.s0, p.i0, p.r0, 0.0, 0.0, 0.0
    p1, p2 = float(psi0[0]), float(psi0[1])
    c1 = c2 = 0.0
    rows = []
    for k in range(n + 1):
        u1, u2 = law(s, i, p1, p2)
        rows.append((s, i, r, d, p1, p2, u1, u2, z, zc))
        if k == n:
            break
        k1s, k1i, k1r, k1d, k1z, k1c = rhs(s, i, u1, u2, beta, alpha, a_i, w1, w2)
        k1p1, k1p2 = adjoint_rhs(s, i, p1, p2, u1, u2, beta, alpha, a_i)
        xs, xi, x1, x2 = s + h2 * k1s, i + h2 * k1i, p1 + h2 * k1p1, p2 + h2 * k1p2
        u1, u2 = law(xs, xi, x1, x2)
        k2s, k2i, k2r, k2d, k2z, k2c = rhs(xs, xi, u1, u2, beta, alpha, a_i, w1, w2)
        k2p1, k2p2 = adjoint_rhs(xs, xi, x1, x2, u1, u2, beta, alpha, a_i)
        xs, xi, x1, x2 = s + h2 * k2s, i + h2 * k2i, p1 + h2 * k2p1, p2 + h2 * k2p2
        u1, u2 = law(xs, xi, x1, x2)
        k3s, k3i, k3r, k3d, k3z, k3c = rhs(xs, xi, u1, u2, beta, alpha, a_i, w1, w2)
        k3p1, k3p2 = adjoint_rhs(xs, xi, x1, x2, u1, u2, beta, alpha, a_i)
        xs, xi, x1, x2 = s + h * k3s, i + h * k3i, p1 + h * k3p1, p2 + h * k3p2
        u1, u2 = law(xs, xi, x1, x2)
        k4s, k4i, k4r, k4d, k4z, k4c = rhs(xs, xi, u1, u2, beta, alpha, a_i, w1, w2)
        k4p1, k4p2 = adjoint_rhs(xs, xi, x1, x2, u1, u2, beta, alpha, a_i)
        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        r = r + h6 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        d = d + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        y1 = h6 * (k1p1 + 2.0 * k2p1 + 2.0 * k3p1 + k4p1) - c1
        t1 = p1 + y1
        c1 = (t1 - p1) - y1
        p1 = t1
        y2 = h6 * (k1p2 + 2.0 * k2p2 + 2.0 * k3p2 + k4p2) - c2
        t2 = p2 + y2
        c2 = (t2 - p2) - y2
        p2 = t2
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        zc = zc + h6 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not all(math.isfinite(v) for v in (s, i, p1, p2, z)):
            raise NonFiniteError((k + 1) * h)
    ss, ii, rr, dd, pp1, pp2, uu1, uu2, zz, zzc = np.array(rows).T
    return Trajectory(t=np.arange(n + 1) * h, s=ss, i=ii, r=rr, d=dd, z=zz, z_control=zzc,
                      u1=uu1, u2=uu2, psi1=pp1, psi2=pp2)


@pytest.fixture
def baseline_params() -> ModelParams:
    return make_baseline_params()


@pytest.fixture
def baseline_cost(baseline_params):
    return running_cost(baseline_params)
