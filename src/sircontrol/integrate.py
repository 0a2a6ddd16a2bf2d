"""Fixed-step classical RK4 integration of the model systems.

This module owns the three passes, the RK4 step maps of their linear
fields and the derivative of the coupled pass (coupled_jacobian, for
shooting).  The passes share one scheme (uniform grid, classical RK4):

  * integrate_coupled        forward pass of the coupled state+costate
                             system with the clamp law substituted at every
                             stage (the shooting solver's workhorse);
  * integrate_state_forward  forward pass of the state under a given
                             per-node control schedule;
  * integrate_adjoint_backward
                             backward pass of the costates along a stored
                             state trajectory, terminal data psi(T) = 0.

The last two read the schedule between nodes in one of two ways.  By
default it is piecewise constant: every stage of the step from t_k uses
node k's control.  That is the meaning of a schedule for the
enumeration oracle, the adjoint gradient and the self-checks, whose
schedules are piecewise constant by construction.  With linear=True it
is piecewise linear: stage 1 uses node k's control, stages 2 and 3 the
mean of nodes k and k+1, stage 4 node k+1.  The forward-backward sweep
uses this, since its schedule samples a continuous optimal control: held
constant over a step, that control is only first-order accurate in h,
and so are the sweep's state and costates; interpolated linearly, they
are second-order (Hager, Numer. Math. 87, 2000).  Each pass builds
per-step (start, middle, end) controls once with numpy, so one code path
serves both readings.

R, D and the running cost (total ``z`` and its control-effort part
``z_control``) never feed back, so the forward loops step only S, I and
the costates; _quadratures integrates the rest along each step's RK4
stage points with the RK4 weights, bit for bit as the loop would, so
objective values carry the integrator's order.  The coupled loop keeps
only its nodes: _coupled_stages rebuilds its stage points on numpy
lanes, for coupled_jacobian too.  The state loop records its own, as a
rebuild would only repeat its arithmetic.

Each pass runs to its last node with no test in its loop, then raises
NonFiniteError at the first node it stepped to (backward, for the
costates) where z or a stepped value is not finite.  No step reads a
later one and Python floats raise nothing on inf or NaN, so that is where
a per-step test stopped.  Later nodes stay non-finite: sums and products
keep inf and NaN, the clamp law passes NaN and Kahan turns inf into NaN.

The backward pass needs state values at RK4 half-steps; those come from
cubic Hermite interpolation of the stored node samples with endpoint
derivatives from the state equations, which preserves 4th-order accuracy.

No model equation is written here: every stage, Hermite endpoint
derivative and linearization calls the kernels of ``model.py``, the
clamp law's included.  The forward passes' inner loops run on
plain Python floats: the systems are tiny (at most 4 stepped equations)
and per-step numpy dispatch would dominate the cost.

The two forward passes, and the enumeration lanes of ``brute_force.py``,
keep their own RK4 loops because they carry different data: 4 unknowns
with the clamp law at every stage, 2 under fixed controls, and numpy
lanes over schedules.  One shared RK4 loop would have to branch on its
caller, and its callbacks cost time: a generic driver with one callback
per stage and tuple arithmetic gave bit-identical coupled passes but
took 1.8-2.1x as long (2000 steps, medians of 15 alternating runs, 2
cores, Python 3.11).  Each loop binds the kernels to locals, unpacks
their tuples straight into locals and records one tuple per step, which
keeps it as fast as the hand-inlined arithmetic it replaced.

The costate pass has no RK4 loop over stages.  Along a stored state the
costate field is affine in psi, so each RK4 step is an affine map; all of
them are built at once on numpy lanes over the time steps of one
problem, and a two-line scalar recurrence applies them.  (The lanes run
over steps, not over problems: a driver stepping many solves in
lockstep on lanes was measured to pay only from 20-30 of them.)  At
2000 steps that took 1.8-2.6 ms against 6-7 ms for the loop of four
adjoint_rhs calls per step it replaced (minimum of 30 runs, 2 cores,
Python 3.11, numpy 2.4), and it agrees with that loop, kept in the
tests as the reference, to within a few units of rounding.

Where a field is linear (the costate field along a stored state, the
coupled linearization along a pass), _rk4_step_maps chains its four
stages into each step's matrix, in one layout, (d, d, lanes), lanes last.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import NonFiniteError
from .model import (ModelParams, RunningCost, adjoint_rhs, control_effort, cost_rate, coupled_linearization,
                    dynamics_rhs, optimal_controls, optimal_controls_lanes, removed_rhs)

__all__ = [
    "Trajectory",
    "integrate_coupled",
    "integrate_state_forward",
    "integrate_adjoint_backward",
    "interval_boundaries",
    "expand_piecewise_schedule",
]


def _columns(rows: list[tuple[float, ...]], width: int) -> np.ndarray:
    """The columns of a pass's rows, each a tuple of width floats."""
    return np.fromiter(chain.from_iterable(rows), float, width * len(rows)).reshape(len(rows), width).T


def _quadratures(s, i, u1, u2, cost: RunningCost, p: ModelParams, nodes: tuple[np.ndarray, ...]):
    """R, D, z and z_control at a forward pass's nodes, from its (4, steps) stage S, I, u1 and u2.

    Each step adds its four stage rates with the RK4 weights, and
    np.add.accumulate adds the steps in sequence.  Raises NonFiniteError
    at the first node where z or one of nodes, the pass's stepped arrays, is not finite.
    """
    h = p.horizon / p.n_steps
    h6 = h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        dr, dd = removed_rhs(s, i, u1, u2, p.alpha)
        dzc = control_effort(u1, u2, cost.w1, cost.w2)
        dz = cost_rate(dzc, i, cost.a_i)
        r, d, z, zc = [np.add.accumulate(np.concatenate(([x0], h6 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]))))
                       for x0, k in ((p.r0, dr), (0.0, dd), (0.0, dz), (0.0, dzc))]
    finite = np.isfinite((z, *nodes)).all(axis=0)
    if not finite.all():
        raise NonFiniteError(int(finite.argmin()) * h)
    return r, d, z, zc


def _coupled_stages(s, i, psi1, psi2, cost: RunningCost, p: ModelParams):
    """(S, I, psi1, psi2, u1, u2), each (4, steps), at the RK4 stages of the coupled steps from
    the given nodes, bit for bit as integrate_coupled's loop takes them.  Callers silence overflow."""
    h = p.horizon / p.n_steps
    beta, alpha, a_i = p.beta, p.alpha, cost.a_i
    law_params = (cost.w1, cost.w2, p.u1_max, p.u2_max)
    x = (s, i, psi1, psi2)
    points = [x + optimal_controls_lanes(*x, *law_params)]
    for f in (h / 2.0, h / 2.0, h):
        xs, xi, x1, x2, u1, u2 = points[-1]
        k = dynamics_rhs(xs, xi, u1, u2, beta, alpha) + adjoint_rhs(xs, xi, x1, x2, u1, u2, beta, alpha, a_i)
        y = tuple(xv + f * kv for xv, kv in zip(x, k))
        points.append(y + optimal_controls_lanes(*y, *law_params))
    return tuple(np.array(c) for c in zip(*points))


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded samples of one integration run.

    State samples (s, i, r, d), cumulative costs (z total, z_control the
    control-effort part) and control samples (u1, u2) are always present;
    costate samples (psi1, psi2) are absent on state-only runs.  Arrays
    are read-only.

    z[-1] is the run's objective, at the integrator's order; z_control[-1]
    is its control effort and z[-1] - z_control[-1] its state load, which
    sum to the objective to within rounding.  d[-1] is D(T), the integral
    of alpha*I; under the "new" functional the state load is c3*D(T).
    """

    t: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    d: np.ndarray
    z: np.ndarray
    z_control: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    psi1: np.ndarray | None = None
    psi2: np.ndarray | None = None

    def __post_init__(self):
        if self.u1 is None or self.u2 is None:
            raise ValueError("a trajectory needs its control samples u1 and u2")
        n = len(self.t)
        for name in ("s", "i", "r", "d", "z", "z_control", "u1", "u2", "psi1", "psi2"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise ValueError(f"field {name} has {len(arr)} samples, expected {n}")
        for name in ("t", "s", "i", "r", "d", "z", "z_control", "u1", "u2", "psi1", "psi2"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return len(self.t) - 1


def interval_boundaries(n_steps: int, n_intervals: int) -> np.ndarray:
    """Node indices splitting an n_steps grid into n_intervals even pieces.

    Boundary j sits at floor(j * n_steps / n_intervals); the first is 0 and
    the last is n_steps.  Interval j owns the fine steps [b_j, b_{j+1}).
    """
    if not 1 <= n_intervals <= n_steps:
        raise ValueError("need 1 <= n_intervals <= n_steps")
    return (np.arange(n_intervals + 1) * n_steps) // n_intervals


def expand_piecewise_schedule(levels: Sequence[float], boundaries: np.ndarray, n_steps: int) -> np.ndarray:
    """Per-node schedule (n_steps + 1 values) from per-interval constants.

    Node k takes the owning interval's level; the final node repeats the
    last interval's value.
    """
    levels_arr = np.asarray(levels, dtype=float)
    if len(levels_arr) != len(boundaries) - 1:
        raise ValueError("one level per interval required")
    out = np.empty(n_steps + 1)
    for j in range(len(levels_arr)):
        out[boundaries[j]:boundaries[j + 1]] = levels_arr[j]
    out[n_steps] = levels_arr[-1]
    return out


def integrate_coupled(
    psi0: tuple[float, float], cost: RunningCost, p: ModelParams
) -> Trajectory:
    """Forward RK4 of state + costates from x(0) = (s0, i0, r0, 0), psi(0) = psi0.

    Controls are recomputed from the clamp law at every RK4 stage (not
    frozen per step), so the stored trajectory satisfies the pointwise
    optimality structure by construction.  The costate sums are
    Kahan-compensated: shooting drives psi(T) down to its rounding floor,
    where plain sums left Newton's convergence to the rounding of its
    start.  Raises NonFiniteError if the run diverges, which the shooting
    solver treats as a rejected guess.
    """
    n = p.n_steps
    h = p.horizon / n
    h2, h6 = h / 2.0, h / 6.0
    beta, alpha, a_i = p.beta, p.alpha, cost.a_i
    w1, w2, u1m, u2m = cost.w1, cost.w2, p.u1_max, p.u2_max
    law, dynamics, adjoint = optimal_controls, dynamics_rhs, adjoint_rhs

    s, i = p.s0, p.i0
    p1, p2 = float(psi0[0]), float(psi0[1])
    c1 = c2 = 0.0  # each costate sum's last rounding error, taken off the next step (Kahan)
    rows = [(s, i, p1, p2)]
    for _ in range(n):
        u1, u2 = law(s, i, p1, p2, w1, w2, u1m, u2m)
        k1s, k1i = dynamics(s, i, u1, u2, beta, alpha)
        k1p1, k1p2 = adjoint(s, i, p1, p2, u1, u2, beta, alpha, a_i)

        s2, i2 = s + h2 * k1s, i + h2 * k1i
        x1, x2 = p1 + h2 * k1p1, p2 + h2 * k1p2
        u1b, u2b = law(s2, i2, x1, x2, w1, w2, u1m, u2m)
        k2s, k2i = dynamics(s2, i2, u1b, u2b, beta, alpha)
        k2p1, k2p2 = adjoint(s2, i2, x1, x2, u1b, u2b, beta, alpha, a_i)

        s3, i3 = s + h2 * k2s, i + h2 * k2i
        x1, x2 = p1 + h2 * k2p1, p2 + h2 * k2p2
        u1c, u2c = law(s3, i3, x1, x2, w1, w2, u1m, u2m)
        k3s, k3i = dynamics(s3, i3, u1c, u2c, beta, alpha)
        k3p1, k3p2 = adjoint(s3, i3, x1, x2, u1c, u2c, beta, alpha, a_i)

        s4, i4 = s + h * k3s, i + h * k3i
        x1, x2 = p1 + h * k3p1, p2 + h * k3p2
        u1d, u2d = law(s4, i4, x1, x2, w1, w2, u1m, u2m)
        k4s, k4i = dynamics(s4, i4, u1d, u2d, beta, alpha)
        k4p1, k4p2 = adjoint(s4, i4, x1, x2, u1d, u2d, beta, alpha, a_i)

        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        y1 = h6 * (k1p1 + 2.0 * k2p1 + 2.0 * k3p1 + k4p1) - c1
        t1 = p1 + y1
        c1 = (t1 - p1) - y1
        p1 = t1
        y2 = h6 * (k1p2 + 2.0 * k2p2 + 2.0 * k3p2 + k4p2) - c2
        t2 = p2 + y2
        c2 = (t2 - p2) - y2
        p2 = t2
        rows.append((s, i, p1, p2))

    nodes = ss, ii, pp1, pp2 = tuple(c.copy() for c in _columns(rows, 4))  # each holding only its own nodes
    del rows
    with np.errstate(over="ignore", invalid="ignore"):
        xs, xi, _, _, xu1, xu2 = _coupled_stages(ss[:-1], ii[:-1], pp1[:-1], pp2[:-1], cost, p)
        r, d, z, zc = _quadratures(xs, xi, xu1, xu2, cost, p, nodes)
        uu1, uu2 = optimal_controls_lanes(ss, ii, pp1, pp2, w1, w2, u1m, u2m)
    return Trajectory(t=np.arange(n + 1) * h, s=ss, i=ii, r=r, d=d, z=z, z_control=zc,
                      u1=uu1, u2=uu2, psi1=pp1, psi2=pp2)


def _rk4_step_maps(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray, a4: np.ndarray, h: float) -> np.ndarray:
    """RK4 step matrices, (d, d, lanes), of a linear field.

    a1 .. a4 are the field's (d, d, lanes) matrices at the step's four
    stage points in the order the step takes them; a negative h steps
    backward.  With K1 = A1, K2 = A2 (I + h/2 K1), K3 = A3 (I + h/2 K2)
    and K4 = A4 (I + h K3), each step is I + h/6 (K1 + 2 K2 + 2 K3 + K4).
    """
    # Lanes last, contracted by einsum: lanes first took 2-4x as long (3x3
    # on 2000 lanes, 4x4 on 500), and matmul there changed the costate
    # pass's rounding.
    eye = np.eye(len(a1))[:, :, None]
    k2 = np.einsum("ijn,jkn->ikn", a2, eye + h / 2.0 * a1)
    k3 = np.einsum("ijn,jkn->ikn", a3, eye + h / 2.0 * k2)
    k4 = np.einsum("ijn,jkn->ikn", a4, eye + h * k3)
    return eye + h / 6.0 * (a1 + 2.0 * k2 + 2.0 * k3 + k4)


# The most steps whose matrices coupled_jacobian holds at once: on 2000
# steps it allocates at most 2.7 MiB with all of them at once and 0.7 MiB
# in blocks of 500, at the same speed.
_JACOBIAN_BLOCK = 500


def coupled_jacobian(traj: Trajectory, cost: RunningCost, p: ModelParams) -> tuple[float, float, float, float]:
    """Exact derivative (a, b, c, d) = d(psi1(T), psi2(T)) / d(psi1(0), psi2(0))
    of the coupled RK4 pass that produced traj.

    _coupled_stages rebuilds each step's four RK4 stage points and their
    controls from the stored nodes, as for the pass's own quadratures,
    and _rk4_step_maps chains the model's linearization at them into each
    step's matrix.  Their product, in a balanced tree per block of at most
    500 steps, maps (S, I, psi1, psi2) at t = 0 to t = T; the start's
    state is fixed, so the answer is its costate block.  Overflow gives a
    non-finite entry, quietly, which the caller treats as a failed step.
    """
    n = p.n_steps
    h = p.horizon / n
    params = (p.beta, p.alpha, cost.w1, cost.w2, p.u1_max, p.u2_max)
    total = np.eye(4)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _JACOBIAN_BLOCK):
            k = slice(lo, min(lo + _JACOBIAN_BLOCK, n))
            stages = zip(*_coupled_stages(traj.s[k], traj.i[k], traj.psi1[k], traj.psi2[k], cost, p))
            steps = _rk4_step_maps(*(coupled_linearization(*x, *params) for x in stages), h).transpose(2, 0, 1)
            while len(steps) > 1:
                # Later steps multiply from the left.
                half = len(steps) // 2
                paired = steps[1:2 * half:2] @ steps[0:2 * half:2]
                steps = np.concatenate((paired, steps[2 * half:]))
            total = steps[0] @ total
    return float(total[2, 2]), float(total[2, 3]), float(total[3, 2]), float(total[3, 3])


def _step_controls(u: np.ndarray, linear: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step (start, middle, end) controls of a node schedule.

    Piecewise constant: all three are node k's value for step k.
    Linear: node k, the mean of nodes k and k+1, and node k+1.
    """
    start = u[:-1]
    if not linear:
        return start, start, start
    end = u[1:]
    return start, 0.5 * (start + end), end


def integrate_state_forward(
    u1_schedule: Sequence[float],
    u2_schedule: Sequence[float],
    cost: RunningCost,
    p: ModelParams,
    linear: bool = False,
) -> Trajectory:
    """Forward RK4 of the state under a per-node control schedule.

    Controls are piecewise constant unless linear: all four stages of the
    step from t_k to t_{k+1} use the node-k value, and the final node's
    control is recorded but never drives a step.  With linear=True
    stage 1 uses node k, stages 2 and 3 the mean of nodes k and k+1 and
    stage 4 node k+1.  Schedules must carry n_steps + 1 values;
    admissibility is the caller's contract (gradient checks deliberately
    probe just outside the box).
    """
    n = p.n_steps
    u1_arr = np.asarray(u1_schedule, dtype=float)
    u2_arr = np.asarray(u2_schedule, dtype=float)
    if u1_arr.shape != (n + 1,) or u2_arr.shape != (n + 1,):
        raise ValueError(f"schedule must have n_steps + 1 = {n + 1} samples per control")

    h = p.horizon / n
    h2, h6 = h / 2.0, h / 6.0
    beta, alpha, dynamics = p.beta, p.alpha, dynamics_rhs
    controls = _step_controls(u1_arr, linear) + _step_controls(u2_arr, linear)
    steps = zip(*[c.tolist() for c in controls])

    s, i = p.s0, p.i0
    rows = []
    for a1, m1, b1, a2, m2, b2 in steps:
        k1s, k1i = dynamics(s, i, a1, a2, beta, alpha)
        s2, i2 = s + h2 * k1s, i + h2 * k1i
        k2s, k2i = dynamics(s2, i2, m1, m2, beta, alpha)
        s3, i3 = s + h2 * k2s, i + h2 * k2i
        k3s, k3i = dynamics(s3, i3, m1, m2, beta, alpha)
        s4, i4 = s + h * k3s, i + h * k3i
        k4s, k4i = dynamics(s4, i4, b1, b2, beta, alpha)
        rows.append((s, s2, s3, s4, i, i2, i3, i4))
        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)

    stages = _columns(rows, 8)
    del rows
    nodes = ss, ii = np.append(stages[0], s), np.append(stages[4], i)
    a1, m1, b1, a2, m2, b2 = controls
    r, d, z, zc = _quadratures(stages[:4], stages[4:], np.array((a1, m1, m1, b1)), np.array((a2, m2, m2, b2)),
                               cost, p, nodes)
    return Trajectory(t=np.arange(n + 1) * h, s=ss, i=ii, r=r, d=d, z=z, z_control=zc,
                      u1=u1_arr.copy(), u2=u2_arr.copy())


def integrate_adjoint_backward(
    state_traj: Trajectory, cost: RunningCost, p: ModelParams, linear: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Backward RK4 of the costates from psi(T) = (0, 0) along a stored state.

    Each backward step over [t_k, t_{k+1}] reads the stored controls as
    integrate_state_forward does with the same linear flag: the stage at
    t_{k+1} uses the step's end control, the two at the midpoint its
    middle control and the one at t_k its start control.  The half-step
    state comes from the cubic Hermite midpoint

        x_mid = (x_l + x_r)/2 + (h/8) (f_l - f_r)

    with derivatives f from the state equations, each under its own
    end's control, so the pass keeps the state pass's order.

    Along a given state the costate field is affine in psi, so each RK4
    step is an affine map psi_k = M_k psi_{k+1} + q_k.  All of them are
    built at once on numpy lanes over the steps, and one scalar
    recurrence from psi(T) = 0 applies them.

    Returns (psi1, psi2) node arrays.  Raises NonFiniteError at the first
    node, going backward, whose costates are not finite.
    """
    n = state_traj.n_steps
    if n != p.n_steps:
        raise ValueError(f"trajectory has {n} steps, params expect {p.n_steps}")

    h = p.horizon / n
    beta, alpha, a_i = p.beta, p.alpha, cost.a_i

    def field(s, i, u1, u2):
        # dpsi/dt = A psi + c as the 3x3 matrix [[A, c], [0, 0]] acting on
        # (psi1, psi2, 1), steps on the last axis: A's columns are the
        # field at unit costates without the source, c the field at zero
        # costates.
        col1 = adjoint_rhs(s, i, 1.0, 0.0, u1, u2, beta, alpha, 0.0)
        col2 = adjoint_rhs(s, i, 0.0, 1.0, u1, u2, beta, alpha, 0.0)
        source = adjoint_rhs(s, i, 0.0, 0.0, u1, u2, beta, alpha, a_i)
        zero = np.zeros(n)
        return np.array([[col1[0], col2[0], source[0]], [col1[1], col2[1], source[1]], [zero, zero, zero]])

    s, i = state_traj.s, state_traj.i
    a1, m1, b1 = _step_controls(state_traj.u1, linear)
    a2, m2, b2 = _step_controls(state_traj.u2, linear)
    # A state that overflows the field gives non-finite steps, quietly;
    # the pass raises at the first node the recurrence reaches with them.
    with np.errstate(over="ignore", invalid="ignore"):
        # Hermite midpoints.  Under piecewise-constant controls both
        # endpoint derivatives use the interval's control (the state's
        # right-limit derivative at t_{k+1} belongs to the next interval).
        fs_l, fi_l = dynamics_rhs(s[:-1], i[:-1], a1, a2, beta, alpha)
        fs_r, fi_r = dynamics_rhs(s[1:], i[1:], b1, b2, beta, alpha)
        mid_s = 0.5 * (s[:-1] + s[1:]) + h / 8.0 * (fs_l - fs_r)
        mid_i = 0.5 * (i[:-1] + i[1:]) + h / 8.0 * (fi_l - fi_r)
        mid = field(mid_s, mid_i, m1, m2)
        step = _rk4_step_maps(field(s[1:], i[1:], b1, b2), mid, mid, field(s[:-1], i[:-1], a1, a2), -h)

    m11, m12, q1, m21, m22, q2 = step[:2].reshape(6, n).tolist()
    p1 = p2 = 0.0
    rows = [(p1, p2)]
    for k in range(n - 1, -1, -1):
        p1, p2 = m11[k] * p1 + m12[k] * p2 + q1[k], m21[k] * p1 + m22[k] * p2 + q2[k]
        rows.append((p1, p2))

    psi1, psi2 = _columns(rows[::-1], 2)
    diverged = np.flatnonzero(~np.isfinite((psi1, psi2)).all(axis=0))
    if len(diverged):
        raise NonFiniteError(int(diverged[-1]) * h)
    return psi1.copy(), psi2.copy()  # each holding only its own nodes
