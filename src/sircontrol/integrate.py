"""Fixed-step classical RK4 integration of the model systems.

Three integration paths share one scheme (uniform grid, classical RK4):

  * integrate_coupled        forward pass of the coupled state+costate
                             system with the clamp law substituted at every
                             stage (the shooting solver's workhorse);
  * integrate_state_forward  forward pass of the state under a given
                             piecewise-constant control schedule;
  * integrate_adjoint_backward
                             backward pass of the costates along a stored
                             state trajectory, terminal data psi(T) = 0.

The running cost is integrated as augmented ODEs alongside the state
(total ``z`` and its control-effort part ``z_control``), so objective
values carry the integrator's order rather than a quadrature rule's.

The backward pass needs state values at RK4 half-steps; those come from
cubic Hermite interpolation of the stored node samples with endpoint
derivatives from the state equations, which preserves 4th-order accuracy.

No model equation is written here: every stage, and every Hermite
endpoint derivative, calls the kernels of ``model.py`` (state_rhs,
adjoint_rhs, optimal_controls).  Inner loops run on plain Python floats:
the systems are tiny (at most 8 scalar equations) and per-step numpy
dispatch would dominate the cost.

The three passes, and the enumeration lanes of ``brute_force.py``, keep
their own RK4 loops because they carry different data: 8 unknowns with
the clamp law at every stage, 6 under fixed controls, 2 costates along an
interpolated state, and numpy lanes.  One shared RK4 loop would have to
branch on its caller, and its callbacks cost time: a generic driver with
one callback per stage and tuple arithmetic gave bit-identical coupled
passes but took 1.8-2.1x as long (2000 steps, medians of 15 alternating
runs, 2 cores, Python 3.11).  Each loop binds the kernels to locals,
unpacks their tuples straight into locals and records one tuple per
node, which keeps it as fast as the hand-inlined arithmetic it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteError
from .model import ModelParams, RunningCost, adjoint_rhs, optimal_controls, state_rhs

__all__ = [
    "Trajectory",
    "integrate_coupled",
    "integrate_state_forward",
    "integrate_adjoint_backward",
    "interval_boundaries",
    "expand_piecewise_schedule",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
                _freeze(arr)

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
    optimality structure by construction.  Raises NonFiniteError if the
    run diverges, which the shooting solver treats as a rejected guess.
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
        p1 = p1 + h6 * (k1p1 + 2.0 * k2p1 + 2.0 * k3p1 + k4p1)
        p2 = p2 + h6 * (k1p2 + 2.0 * k2p2 + 2.0 * k3p2 + k4p2)
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        zc = zc + h6 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (isfinite(s) and isfinite(i) and isfinite(p1) and isfinite(p2) and isfinite(z)):
            raise NonFiniteError((k + 1) * h)

    ss, ii, rr, dd, pp1, pp2, uu1, uu2, zz, zzc = np.array(rows, dtype=float).T
    return Trajectory(
        t=np.arange(n + 1) * h,
        s=ss, i=ii, r=rr, d=dd, z=zz, z_control=zzc,
        u1=uu1, u2=uu2, psi1=pp1, psi2=pp2,
    )


def integrate_state_forward(
    u1_schedule: Sequence[float],
    u2_schedule: Sequence[float],
    cost: RunningCost,
    p: ModelParams,
) -> Trajectory:
    """Forward RK4 of the state under a per-node control schedule.

    Controls are piecewise constant: all four stages of the step from
    t_k to t_{k+1} use the node-k value.  The final node's control is
    recorded but never drives a step.  Schedules must carry n_steps + 1
    values; admissibility is the caller's contract (gradient checks
    deliberately probe just outside the box).
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
    u1_list = u1_arr.tolist()
    u2_list = u2_arr.tolist()

    s, i, r, d = p.s0, p.i0, p.r0, 0.0
    z = 0.0
    zc = 0.0
    rows = []
    for k in range(n + 1):
        rows.append((s, i, r, d, z, zc))
        if k == n:
            break
        u1 = u1_list[k]
        u2 = u2_list[k]
        k1s, k1i, k1r, k1d, k1z, k1c = rhs(s, i, u1, u2, beta, alpha, a_i, w1, w2)
        k2s, k2i, k2r, k2d, k2z, k2c = rhs(s + h2 * k1s, i + h2 * k1i, u1, u2, beta, alpha, a_i, w1, w2)
        k3s, k3i, k3r, k3d, k3z, k3c = rhs(s + h2 * k2s, i + h2 * k2i, u1, u2, beta, alpha, a_i, w1, w2)
        k4s, k4i, k4r, k4d, k4z, k4c = rhs(s + h * k3s, i + h * k3i, u1, u2, beta, alpha, a_i, w1, w2)
        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        r = r + h6 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        d = d + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        zc = zc + h6 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not (isfinite(s) and isfinite(i) and isfinite(z)):
            raise NonFiniteError((k + 1) * h)

    ss, ii, rr, dd, zz, zzc = np.array(rows, dtype=float).T
    return Trajectory(
        t=np.arange(n + 1) * h, s=ss, i=ii, r=rr, d=dd, z=zz, z_control=zzc,
        u1=u1_arr.copy(), u2=u2_arr.copy(),
    )


def integrate_adjoint_backward(
    state_traj: Trajectory, cost: RunningCost, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Backward RK4 of the costates from psi(T) = (0, 0) along a stored state.

    Each backward step over [t_{k-1}, t_k] uses the interval's constant
    control (the node k-1 sample, matching integrate_state_forward).  The
    half-step state comes from the cubic Hermite midpoint

        x_mid = (x_l + x_r)/2 + (h/8) (f_l - f_r)

    with derivatives f from the state equations under that same control,
    so the pass stays 4th-order accurate.

    Returns (psi1, psi2) node arrays.
    """
    n = state_traj.n_steps
    if n != p.n_steps:
        raise ValueError(f"trajectory has {n} steps, params expect {p.n_steps}")

    h = p.horizon / n
    h2 = h / 2.0
    h6 = h / 6.0
    h8 = h / 8.0
    beta, alpha = p.beta, p.alpha
    a_i, w1, w2 = cost.a_i, cost.w1, cost.w2

    # Hermite midpoints of all intervals at once, state_rhs running on
    # numpy lanes.  Endpoint derivatives use the interval's control (the
    # state's right-limit derivative at t_k belongs to the next interval).
    s, i = state_traj.s, state_traj.i
    v1, v2 = state_traj.u1[:-1], state_traj.u2[:-1]
    fs_l, fi_l, _, _, _, _ = state_rhs(s[:-1], i[:-1], v1, v2, beta, alpha, a_i, w1, w2)
    fs_r, fi_r, _, _, _, _ = state_rhs(s[1:], i[1:], v1, v2, beta, alpha, a_i, w1, w2)
    s_mid = (0.5 * (s[:-1] + s[1:]) + h8 * (fs_l - fs_r)).tolist()
    i_mid = (0.5 * (i[:-1] + i[1:]) + h8 * (fi_l - fi_r)).tolist()

    s_list = s.tolist()
    i_list = i.tolist()
    u1_list = v1.tolist()
    u2_list = v2.tolist()
    adjoint, isfinite = adjoint_rhs, math.isfinite

    p1 = 0.0
    p2 = 0.0
    rows = [(p1, p2)]
    for k in range(n, 0, -1):
        u1 = u1_list[k - 1]
        u2 = u2_list[k - 1]
        s_l, i_l, s_m, i_m = s_list[k - 1], i_list[k - 1], s_mid[k - 1], i_mid[k - 1]
        s_r, i_r = s_list[k], i_list[k]
        k1p1, k1p2 = adjoint(s_r, i_r, p1, p2, u1, u2, beta, alpha, a_i)
        k2p1, k2p2 = adjoint(s_m, i_m, p1 - h2 * k1p1, p2 - h2 * k1p2, u1, u2, beta, alpha, a_i)
        k3p1, k3p2 = adjoint(s_m, i_m, p1 - h2 * k2p1, p2 - h2 * k2p2, u1, u2, beta, alpha, a_i)
        k4p1, k4p2 = adjoint(s_l, i_l, p1 - h * k3p1, p2 - h * k3p2, u1, u2, beta, alpha, a_i)
        p1 = p1 - h6 * (k1p1 + 2.0 * k2p1 + 2.0 * k3p1 + k4p1)
        p2 = p2 - h6 * (k1p2 + 2.0 * k2p2 + 2.0 * k3p2 + k4p2)
        if not (isfinite(p1) and isfinite(p2)):
            raise NonFiniteError((k - 1) * h)
        rows.append((p1, p2))

    psi1, psi2 = np.array(rows[::-1], dtype=float).T
    return psi1, psi2
