"""Fixed-step classical RK4 integration of the model systems.

This module owns the three passes, the RK4 step maps of their linear
fields and two passes' derivatives (coupled_jacobian for shooting,
control_gradient for a schedule).  They share one scheme (uniform grid,
classical RK4):

  * integrate_coupled        forward pass of the coupled state+costate
                             system with the clamp law substituted at every
                             stage (the shooting solver's workhorse);
  * integrate_state_forward  forward pass of the state under a given
                             per-node control schedule;
  * integrate_adjoint_backward
                             backward pass of the costates along a stored
                             state trajectory, terminal data psi(T) = 0.

The state pass reads the schedule between nodes in one of two ways.  By
default it is piecewise constant: every stage of the step from t_k uses
node k's control, as the enumeration oracle's lanes do.  That is the
meaning of a schedule for control_gradient and the self-checks, whose
schedules are piecewise constant by construction.  With linear=True it
is piecewise linear: stage 1 uses node k's control, stages 2 and 3 the
mean of nodes k and k+1, stage 4 node k+1.  The costate pass always
reads so, and the forward-backward sweep uses it, since its schedule
samples a continuous optimal control: held constant over a step, that
control is only first-order accurate in h, and so are the sweep's state
and costates; interpolated linearly, they are second-order (Hager,
Numer. Math. 87, 2000).  _stage_controls builds each step's stage
controls once with numpy, so one code path serves both readings.

R, D and the running cost (total ``z`` and its control-effort part
``z_control``) never feed back, so the forward loops step only S, I and
the costates; _quadratures integrates the rest along each step's RK4
stage points with the RK4 weights, bit for bit as the loop would, so
objective values carry the integrator's order.  Both forward loops keep
only their nodes: _coupled_stages and _state_stages rebuild each step's
stage points on numpy lanes, for the quadratures and for the pass's
derivative, coupled_jacobian or control_gradient.  Both take the RK4
stage scheme from one builder, _stage_points.

Only the entry points silence overflow: the three passes,
coupled_jacobian, control_gradient and brute_force.brute_force_best open
np.errstate, and every helper computes under theirs.

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
lanes over schedules, whose stages stay inline too (through
_stage_points they slowed the oracle by 13%).  One shared RK4 loop would
have to branch on its caller, and its callbacks cost time: a generic
driver with one callback per stage and tuple arithmetic gave
bit-identical coupled passes but took 1.8-2.1x as long (2000 steps,
medians of 15 alternating runs, 2 cores, Python 3.11).  Each loop binds
the kernels to locals, unpacks their tuples straight into locals and
records one tuple per step, which keeps it as fast as the hand-inlined
arithmetic it replaced.

The costate pass has no RK4 loop over stages.  Along a stored state the
costate field is affine in psi, so each RK4 step is an affine map; all of
them are built at once on numpy lanes over the time steps of one
problem, and a two-line scalar recurrence applies them.  (The lanes run
over steps, not over problems: a driver stepping many solves in
lockstep on lanes was measured to pay only from 20-30 of them.)  A loop
of four adjoint_rhs calls per step, kept in the tests as the reference,
takes several times as long and agrees to within a few units of rounding.

Where a field is linear (the costate field along a stored state, the
linearized coupled or state field along a pass), _rk4_step_maps chains
its four stages into each step's matrix, in one layout, (d, d, lanes).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import itemgetter
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
    "control_gradient",
    "interval_boundaries",
    "expand_piecewise_schedule",
]


def _columns(rows: list[tuple[float, ...]]) -> tuple[np.ndarray, ...]:
    """One array per column of a pass's rows, tuples of floats, each holding only its own nodes."""
    return tuple(np.fromiter(map(itemgetter(k), rows), float, len(rows)) for k in range(len(rows[0])))


def _quadratures(s, i, u1, u2, cost: RunningCost, p: ModelParams, nodes: tuple[np.ndarray, ...]):
    """R, D, z and z_control at a forward pass's nodes, from its (4, steps) stage S, I, u1 and u2.

    Each step adds its four stage rates with the RK4 weights, and np.add.accumulate adds the
    steps in sequence.  Raises NonFiniteError at the first node where z or one of nodes, the
    pass's stepped arrays, is not finite.  Callers silence overflow.
    """
    h = p.horizon / p.n_steps
    h6 = h / 6.0
    dr, dd = removed_rhs(s, i, u1, u2, p.alpha)
    dzc = control_effort(u1, u2, cost.w1, cost.w2)
    dz = cost_rate(dzc, i, cost.a_i)
    r, d, z, zc = [np.add.accumulate(np.concatenate(([x0], h6 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]))))
                   for x0, k in ((p.r0, dr), (0.0, dd), (0.0, dz), (0.0, dzc))]
    finite = np.isfinite((z, *nodes)).all(axis=0)
    if not finite.all():
        raise NonFiniteError(int(finite.argmin()) * h)
    return r, d, z, zc


def _stage_points(x: tuple[np.ndarray, ...], rates, h: float) -> tuple[np.ndarray, ...]:
    """Each of x's lanes, (4, steps), at the RK4 stages of the steps from the nodes x: stage 1
    is x and stage j + 1 is x + c_j h rates(j, stage j), with c = (1/2, 1/2, 1) and rates(j, y)
    the lanes' slopes at stage j's points y.  Callers silence overflow."""
    points = [x]
    for j, c in enumerate((0.5, 0.5, 1.0)):
        points.append(tuple(xv + c * h * kv for xv, kv in zip(x, rates(j, points[-1]))))
    return tuple(np.array(stages) for stages in zip(*points))


def _coupled_stages(s, i, psi1, psi2, cost: RunningCost, p: ModelParams):
    """(S, I, psi1, psi2, u1, u2), each (4, steps), at the RK4 stages of the coupled steps from
    the given nodes, bit for bit as integrate_coupled's loop takes them.  Callers silence overflow."""
    law_params = (cost.w1, cost.w2, p.u1_max, p.u2_max)

    def rates(_, y):
        u = optimal_controls_lanes(*y, *law_params)
        return dynamics_rhs(y[0], y[1], *u, p.beta, p.alpha) + adjoint_rhs(*y, *u, p.beta, p.alpha, cost.a_i)

    points = _stage_points((s, i, psi1, psi2), rates, p.horizon / p.n_steps)
    return points + optimal_controls_lanes(*points, *law_params)


def _state_stages(s, i, u1, u2, p: ModelParams):
    """(S, I), each (4, steps), at the RK4 stages of the state steps from the given nodes under
    the stage controls u1[j] and u2[j], bit for bit as integrate_state_forward's loop takes
    them.  Callers silence overflow."""
    return _stage_points((s, i), lambda j, y: dynamics_rhs(*y, u1[j], u2[j], p.beta, p.alpha),
                         p.horizon / p.n_steps)


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
        arrays = [(f.name, arr) for f in fields(self) if (arr := getattr(self, f.name)) is not None]
        for name, arr in arrays:
            if len(arr) != n:
                raise ValueError(f"field {name} has {len(arr)} samples, expected {n}")
        for _, arr in arrays:
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


def expand_piecewise_schedule(levels: Sequence[float], n_steps: int) -> np.ndarray:
    """Per-node schedule (n_steps + 1 values) from one level per interval of
    interval_boundaries(n_steps, len(levels)).

    Node k takes the owning interval's level; the final node repeats the
    last interval's value.
    """
    levels_arr = np.asarray(levels, dtype=float)
    if levels_arr.ndim != 1:
        raise ValueError("levels must be 1-d")
    widths = np.diff(interval_boundaries(n_steps, len(levels_arr)))
    widths[-1] += 1
    return np.repeat(levels_arr, widths)


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

    nodes = ss, ii, pp1, pp2 = _columns(rows)
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
    backward.  With K1 = A1, K2 = A2 (I + h/2 K1), K3 = A3 (I + h/2 K2) and K4 = A4 (I + h K3),
    each step is I + h/6 (K1 + 2 K2 + 2 K3 + K4).  Callers silence overflow.
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


def _stage_controls(u: np.ndarray, linear: bool) -> np.ndarray:
    """Controls (4, steps) at each step's RK4 stages, read from a node schedule.

    Piecewise constant: node k's value at all four stages of step k.  Linear: node k, the
    mean of nodes k and k+1 twice, and node k+1.  Callers silence overflow.
    """
    start = u[:-1]
    if not linear:
        return np.array((start,) * 4)
    end = u[1:]
    middle = 0.5 * (start + end)
    return np.array((start, middle, middle, end))


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
    with np.errstate(over="ignore", invalid="ignore"):
        u1, u2 = _stage_controls(u1_arr, linear), _stage_controls(u2_arr, linear)
    steps = zip(*u1[[0, 1, 3]].tolist(), *u2[[0, 1, 3]].tolist())

    s, i = p.s0, p.i0
    rows = [(s, i)]
    for a1, m1, b1, a2, m2, b2 in steps:
        k1s, k1i = dynamics(s, i, a1, a2, beta, alpha)
        k2s, k2i = dynamics(s + h2 * k1s, i + h2 * k1i, m1, m2, beta, alpha)
        k3s, k3i = dynamics(s + h2 * k2s, i + h2 * k2i, m1, m2, beta, alpha)
        k4s, k4i = dynamics(s + h * k3s, i + h * k3i, b1, b2, beta, alpha)
        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        rows.append((s, i))

    nodes = ss, ii = _columns(rows)
    del rows
    with np.errstate(over="ignore", invalid="ignore"):
        xs, xi = _state_stages(ss[:-1], ii[:-1], u1, u2, p)
        r, d, z, zc = _quadratures(xs, xi, u1, u2, cost, p, nodes)
    return Trajectory(t=np.arange(n + 1) * h, s=ss, i=ii, r=r, d=d, z=z, z_control=zc,
                      u1=u1_arr.copy(), u2=u2_arr.copy())


def _back_substitute(step: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Node arrays (x1, x2) of x_k = M_k x_{k+1} + q_k from x_N = 0, the steps (3, 3, steps) in
    the layout [[M, q], [0, 1]], by one scalar recurrence.  Raises NonFiniteError at the first
    node, going backward, where x is not finite."""
    n = step.shape[-1]
    m11, m12, q1, m21, m22, q2 = step[:2].reshape(6, n).tolist()
    x1 = x2 = 0.0
    rows = [(x1, x2)]
    for k in range(n - 1, -1, -1):
        x1, x2 = m11[k] * x1 + m12[k] * x2 + q1[k], m21[k] * x1 + m22[k] * x2 + q2[k]
        rows.append((x1, x2))

    x1, x2 = _columns(rows[::-1])
    diverged = np.flatnonzero(~np.isfinite((x1, x2)).all(axis=0))
    if len(diverged):
        raise NonFiniteError(int(diverged[-1]) * h)
    return x1, x2


def integrate_adjoint_backward(
    state_traj: Trajectory, cost: RunningCost, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Backward RK4 of the costates from psi(T) = (0, 0) along a stored state.

    Each backward step over [t_k, t_{k+1}] reads the stored controls
    piecewise linearly, as integrate_state_forward does with
    linear=True: the stage at t_{k+1} uses node k+1's control, the two at
    the midpoint the mean of both nodes' and the one at t_k node k's.
    The half-step state comes from the cubic Hermite midpoint

        x_mid = (x_l + x_r)/2 + (h/8) (f_l - f_r)

    with derivatives f from the state equations, each under its own
    end's control, so the pass keeps the state pass's order.

    Along a given state the costate field is affine in psi, so each RK4
    step is an affine map psi_k = M_k psi_{k+1} + q_k, all of them built
    at once on numpy lanes.  The slopes f and the field are built once
    over the nodes, node k being the left end of step k and the right end
    of step k - 1, and the field once over the midpoints; _back_substitute
    applies the steps from psi(T) = 0.

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
        zero = np.zeros(len(s))
        return np.array([[col1[0], col2[0], source[0]], [col1[1], col2[1], source[1]], [zero, zero, zero]])

    s, i, u1, u2 = state_traj.s, state_traj.i, state_traj.u1, state_traj.u2
    # A state that overflows the field gives non-finite steps, quietly;
    # the pass raises at the first node the recurrence reaches with them.
    with np.errstate(over="ignore", invalid="ignore"):
        fs, fi = dynamics_rhs(s, i, u1, u2, beta, alpha)
        mid_s = 0.5 * (s[:-1] + s[1:]) + h / 8.0 * (fs[:-1] - fs[1:])
        mid_i = 0.5 * (i[:-1] + i[1:]) + h / 8.0 * (fi[:-1] - fi[1:])
        mid = field(mid_s, mid_i, 0.5 * (u1[:-1] + u1[1:]), 0.5 * (u2[:-1] + u2[1:]))
        node = field(s, i, u1, u2)
        step = _rk4_step_maps(node[..., 1:], mid, mid, node[..., :-1], -h)
    return _back_substitute(step, h)


def control_gradient(u1_levels, u2_levels, cost: RunningCost, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact derivative of the state pass's z[-1] in the levels of a piecewise-constant schedule.

    The schedule holds one (u1, u2) pair per interval of the even
    partition of the grid into len(u1_levels) pieces.  Held as constant
    states, the controls join (S, I, z) in a field of five variables,
    whose derivative _rk4_step_maps chains at each step's stage points
    into its matrix M_k.  lambda_k = lambda_{k+1} M_k[:3, :3] runs back
    from lambda_N = e_z, and step k's slope lambda_{k+1} M_k[:3, 3:] is
    summed per interval: the discrete adjoint of the RK4 pass (Hager
    2000).  Raises NonFiniteError where the pass or its adjoint diverges.
    """
    u1_levels = np.asarray(u1_levels, dtype=float)
    u2_levels = np.asarray(u2_levels, dtype=float)
    if u1_levels.shape != u2_levels.shape or u1_levels.ndim != 1:
        raise ValueError("u1_levels and u2_levels must be 1-d and the same length")
    n = p.n_steps
    h = p.horizon / n
    beta, alpha, a_i = p.beta, p.alpha, cost.a_i
    traj = integrate_state_forward(expand_piecewise_schedule(u1_levels, n),
                                   expand_piecewise_schedule(u2_levels, n), cost, p)
    u1, u2 = traj.u1[:-1], traj.u2[:-1]
    zero = np.zeros(n)

    def field(s, i):
        # Rows dS, dI, dz and the held controls' zero rows; columns S, I,
        # z, u1 and u2.  The state columns negate the costate field at
        # unit costates, its source gives dz's, the dynamics at unit
        # controls give the control columns, and 2*w*u is the slope of
        # the control effort.
        col1 = adjoint_rhs(s, i, 1.0, 0.0, u1, u2, beta, alpha, 0.0)
        col2 = adjoint_rhs(s, i, 0.0, 1.0, u1, u2, beta, alpha, 0.0)
        source = adjoint_rhs(s, i, 0.0, 0.0, u1, u2, beta, alpha, a_i)
        v1 = dynamics_rhs(s, i, 1.0, 0.0, 0.0, 0.0)
        v2 = dynamics_rhs(s, i, 0.0, 1.0, 0.0, 0.0)
        return np.array([[-col1[0], -col1[1], zero, v1[0], v2[0]],
                         [-col2[0], -col2[1], zero, v1[1], v2[1]],
                         [source[0], source[1], zero, 2.0 * cost.w1 * u1, 2.0 * cost.w2 * u2],
                         [zero] * 5, [zero] * 5])

    with np.errstate(over="ignore", invalid="ignore"):
        stages = zip(*_state_stages(traj.s[:-1], traj.i[:-1], (u1,) * 4, (u2,) * 4, p))
        step = _rk4_step_maps(*(field(s, i) for s, i in stages), h)
        # [[A, 0], [c, 1]] transposed is in the costate pass's layout.
        lam1, lam2 = _back_substitute(step[:3, :3].transpose(1, 0, 2), h)
        slopes = lam1[1:] * step[0, 3:] + lam2[1:] * step[1, 3:] + step[2, 3:]
    g1, g2 = np.add.reduceat(slopes, interval_boundaries(n, len(u1_levels))[:-1], axis=1)
    return g1, g2
