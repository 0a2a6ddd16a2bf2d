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

The running cost is integrated as augmented ODEs alongside the state
(total ``z`` and its control-effort part ``z_control``), so objective
values carry the integrator's order rather than a quadrature rule's.

The backward pass needs state values at RK4 half-steps; those come from
cubic Hermite interpolation of the stored node samples with endpoint
derivatives from the state equations, which preserves 4th-order accuracy.

No model equation is written here: every stage, Hermite endpoint
derivative and linearization calls the kernels of ``model.py``, the
clamp law's included.  The forward passes' inner loops run on
plain Python floats: the systems are tiny (at most 8 scalar equations)
and per-step numpy dispatch would dominate the cost.

The two forward passes, and the enumeration lanes of ``brute_force.py``,
keep their own RK4 loops because they carry different data: 8 unknowns
with the clamp law at every stage, 6 under fixed controls, and numpy
lanes over schedules.  One shared RK4 loop would have to branch on its
caller, and its callbacks cost time: a generic driver with one callback
per stage and tuple arithmetic gave bit-identical coupled passes but
took 1.8-2.1x as long (2000 steps, medians of 15 alternating runs, 2
cores, Python 3.11).  Each loop binds the kernels to locals, unpacks
their tuples straight into locals and records one tuple per node, which
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

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import NonFiniteError
from .model import (ModelParams, RunningCost, adjoint_rhs, coupled_linearization, optimal_controls,
                    optimal_controls_lanes, state_rhs)

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
    h2 = h / 2.0
    h6 = h / 6.0
    beta, alpha = p.beta, p.alpha
    a_i, w1, w2 = cost.a_i, cost.w1, cost.w2
    u1m, u2m = p.u1_max, p.u2_max
    law, rhs, adjoint, isfinite = optimal_controls, state_rhs, adjoint_rhs, math.isfinite

    s, i, r, d = p.s0, p.i0, p.r0, 0.0
    p1, p2 = float(psi0[0]), float(psi0[1])
    c1 = c2 = 0.0  # each costate sum's last rounding error, taken off the next step (Kahan)
    z = 0.0
    zc = 0.0
    rows = []
    for k in range(n + 1):
        u1, u2 = law(s, i, p1, p2, w1, w2, u1m, u2m)
        rows.append((s, i, r, d, p1, p2, u1, u2, z, zc))
        if k == n:
            break
        k1s, k1i, k1r, k1d, k1z, k1c = rhs(s, i, u1, u2, beta, alpha, a_i, w1, w2)
        k1p1, k1p2 = adjoint(s, i, p1, p2, u1, u2, beta, alpha, a_i)

        xs = s + h2 * k1s
        xi = i + h2 * k1i
        x1 = p1 + h2 * k1p1
        x2 = p2 + h2 * k1p2
        u1, u2 = law(xs, xi, x1, x2, w1, w2, u1m, u2m)
        k2s, k2i, k2r, k2d, k2z, k2c = rhs(xs, xi, u1, u2, beta, alpha, a_i, w1, w2)
        k2p1, k2p2 = adjoint(xs, xi, x1, x2, u1, u2, beta, alpha, a_i)

        xs = s + h2 * k2s
        xi = i + h2 * k2i
        x1 = p1 + h2 * k2p1
        x2 = p2 + h2 * k2p2
        u1, u2 = law(xs, xi, x1, x2, w1, w2, u1m, u2m)
        k3s, k3i, k3r, k3d, k3z, k3c = rhs(xs, xi, u1, u2, beta, alpha, a_i, w1, w2)
        k3p1, k3p2 = adjoint(xs, xi, x1, x2, u1, u2, beta, alpha, a_i)

        xs = s + h * k3s
        xi = i + h * k3i
        x1 = p1 + h * k3p1
        x2 = p2 + h * k3p2
        u1, u2 = law(xs, xi, x1, x2, w1, w2, u1m, u2m)
        k4s, k4i, k4r, k4d, k4z, k4c = rhs(xs, xi, u1, u2, beta, alpha, a_i, w1, w2)
        k4p1, k4p2 = adjoint(xs, xi, x1, x2, u1, u2, beta, alpha, a_i)

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
        if not (isfinite(s) and isfinite(i) and isfinite(p1) and isfinite(p2) and isfinite(z)):
            raise NonFiniteError((k + 1) * h)

    ss, ii, rr, dd, pp1, pp2, uu1, uu2, zz, zzc = _columns(rows, 10)
    return Trajectory(
        t=np.arange(n + 1) * h,
        s=ss, i=ii, r=rr, d=dd, z=zz, z_control=zzc,
        u1=uu1, u2=uu2, psi1=pp1, psi2=pp2,
    )


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

    Each step's RK4 stage points are rebuilt from the stored nodes on
    numpy lanes with the kernels the pass called, and _rk4_step_maps
    chains the model's linearization at the four stages into each step's
    matrix.  Their product, in a balanced tree per block of at most 500
    steps, maps (S, I, psi1, psi2) at t = 0 to t = T; the start's state
    is fixed, so the answer is its costate block.  Overflow gives a
    non-finite entry, quietly, which the caller treats as a failed step.
    """
    n = p.n_steps
    h = p.horizon / n
    beta, alpha = p.beta, p.alpha
    a_i, w1, w2 = cost.a_i, cost.w1, cost.w2
    u1m, u2m = p.u1_max, p.u2_max

    def slopes(s, i, psi1, psi2, u1, u2):
        ds, di, _, _, _, _ = state_rhs(s, i, u1, u2, beta, alpha, a_i, w1, w2)
        dp1, dp2 = adjoint_rhs(s, i, psi1, psi2, u1, u2, beta, alpha, a_i)
        lin = coupled_linearization(s, i, psi1, psi2, u1, u2, beta, alpha, w1, w2, u1m, u2m)
        return (ds, di, dp1, dp2), lin

    def stage(x, k, f):
        xs, xi, x1, x2 = (xv + f * kv for xv, kv in zip(x, k))
        return slopes(xs, xi, x1, x2, *optimal_controls_lanes(xs, xi, x1, x2, w1, w2, u1m, u2m))

    total = np.eye(4)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _JACOBIAN_BLOCK):
            nodes = slice(lo, min(lo + _JACOBIAN_BLOCK, n))
            x = (traj.s[nodes], traj.i[nodes], traj.psi1[nodes], traj.psi2[nodes])
            # Stage 1's controls are the ones the pass stored at the node.
            f1, a1 = slopes(*x, traj.u1[nodes], traj.u2[nodes])
            f2, a2 = stage(x, f1, h / 2.0)
            f3, a3 = stage(x, f2, h / 2.0)
            _, a4 = stage(x, f3, h)
            steps = _rk4_step_maps(a1, a2, a3, a4, h).transpose(2, 0, 1)
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
    h2 = h / 2.0
    h6 = h / 6.0
    beta, alpha = p.beta, p.alpha
    a_i, w1, w2 = cost.a_i, cost.w1, cost.w2
    rhs, isfinite = state_rhs, math.isfinite
    controls = _step_controls(u1_arr, linear) + _step_controls(u2_arr, linear)
    steps = zip(*[c.tolist() for c in controls])

    s, i, r, d = p.s0, p.i0, p.r0, 0.0
    z = 0.0
    zc = 0.0
    rows = [(s, i, r, d, z, zc)]
    for a1, m1, b1, a2, m2, b2 in steps:
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
        if not (isfinite(s) and isfinite(i) and isfinite(z)):
            raise NonFiniteError(len(rows) * h)
        rows.append((s, i, r, d, z, zc))

    ss, ii, rr, dd, zz, zzc = _columns(rows, 6)
    return Trajectory(
        t=np.arange(n + 1) * h, s=ss, i=ii, r=rr, d=dd, z=zz, z_control=zzc,
        u1=u1_arr.copy(), u2=u2_arr.copy(),
    )


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

    Returns (psi1, psi2) node arrays.  Raises NonFiniteError at the time
    of the first node whose costates are not finite.
    """
    n = state_traj.n_steps
    if n != p.n_steps:
        raise ValueError(f"trajectory has {n} steps, params expect {p.n_steps}")

    h = p.horizon / n
    h8 = h / 8.0
    beta, alpha = p.beta, p.alpha
    a_i, w1, w2 = cost.a_i, cost.w1, cost.w2

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
    # the recurrence raises at the first node they reach.
    with np.errstate(over="ignore", invalid="ignore"):
        # Hermite midpoints.  Under piecewise-constant controls both
        # endpoint derivatives use the interval's control (the state's
        # right-limit derivative at t_{k+1} belongs to the next interval).
        fs_l, fi_l, _, _, _, _ = state_rhs(s[:-1], i[:-1], a1, a2, beta, alpha, a_i, w1, w2)
        fs_r, fi_r, _, _, _, _ = state_rhs(s[1:], i[1:], b1, b2, beta, alpha, a_i, w1, w2)
        mid = field(
            0.5 * (s[:-1] + s[1:]) + h8 * (fs_l - fs_r), 0.5 * (i[:-1] + i[1:]) + h8 * (fi_l - fi_r), m1, m2
        )
        step = _rk4_step_maps(field(s[1:], i[1:], b1, b2), mid, mid, field(s[:-1], i[:-1], a1, a2), -h)

    m11, m12, q1, m21, m22, q2 = step[:2].reshape(6, n).tolist()
    isfinite = math.isfinite
    p1 = 0.0
    p2 = 0.0
    rows = [(p1, p2)]
    for k in range(n - 1, -1, -1):
        p1, p2 = m11[k] * p1 + m12[k] * p2 + q1[k], m21[k] * p1 + m22[k] * p2 + q2[k]
        if not (isfinite(p1) and isfinite(p2)):
            raise NonFiniteError(k * h)
        rows.append((p1, p2))

    psi1, psi2 = _columns(rows[::-1], 2)
    return psi1, psi2
