"""Boundary-value solvers for the optimality system.

The first-order conditions turn the control problem into a two-point
boundary-value problem: the state starts at (s0, i0, r0, 0) while the
costates must vanish at the final time.  Two solvers attack it:

  * solve_shooting          single shooting on the unknown initial
                            costates psi(0): full Newton steps on the
                            2-vector residual psi(T), forward-difference
                            2x2 Jacobian solved in closed form, started
                            once from psi(0) of a loosely converged
                            forward-backward sweep;
  * solve_forward_backward  forward-backward sweep: alternate forward
                            state / backward costate integrations with a
                            relaxed clamp-law control update until the
                            control schedule reaches a fixed point; the
                            relaxation halves whenever the sweep's own
                            residual stops falling.

The sweep only picks the shooting solve's start: shooting's answer is
still the root of its own residual, the terminal costates of the coupled
RK4 pass, at residual_tol, while the sweep's is the fixed point of
separate state and costate passes.  They are two discretizations of the
same conditions, so their agreement on the objective is a meaningful
cross-check.  control_gradient supplies the adjoint-based derivative of
the objective with respect to a piecewise-constant schedule, used for
finite-difference verification.

Only the shooting tolerance, residual_tol, is an argument; the
difference step, the Newton cap, the seed's tolerance and every setting
of the sweep are the module constants below, since no caller needs
another value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteError
from .integrate import (
    Trajectory,
    expand_piecewise_schedule,
    integrate_adjoint_backward,
    integrate_coupled,
    integrate_state_forward,
    interval_boundaries,
)
from .model import ModelParams, RunningCost, optimal_controls_lanes

__all__ = [
    "SolveReport",
    "shooting_residual",
    "solve_shooting",
    "solve_forward_backward",
    "control_gradient",
]

# Shooting: relative step of the forward-difference Jacobian, Newton
# iteration cap, and the tolerance of the forward-backward sweep that
# seeds Newton.  A seed at 1e-3 is close enough for 3-6 full Newton
# steps, yet costs a third of the sweeps of a fully converged one on the
# legacy functional.
_FD_EPSILON = 1e-6
_MAX_NEWTON_ITERS = 50
_SEED_TOL = 1e-3

# Forward-backward sweep: sweep cap, tolerance on the control fixed point,
# and the relaxation rule (start value; halve after this many sweeps
# without a new minimum of the relaxation-free residual).
_FBS_MAX_SWEEPS = 500
_FBS_TOL = 1e-9
_FBS_RELAXATION = 0.5
_FBS_STALL_SWEEPS = 5


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve, returned even on failure (converged=False).

    sweeps counts the forward-backward sweeps the solve ran (the final
    consistent pass excluded): the seed's for shooting, all of them for
    the forward-backward sweep.  newton_iters counts the shooting solve's
    Newton iterations and coupled_integrations its coupled passes,
    Jacobian probes and a rejected last step included; both stay 0 for
    the forward-backward sweep.  residual_norm is max(|psi1(T)|,
    |psi2(T)|), which the sweep's backward pass makes exactly 0; the
    sweep's converged flag says that its control fixed point was reached
    within 500 sweeps.
    """

    trajectory: Trajectory
    objective: float
    residual_norm: float
    newton_iters: int
    converged: bool
    solver: str
    sweeps: int
    coupled_integrations: int


def shooting_residual(
    psi0: tuple[float, float], cost: RunningCost, p: ModelParams
) -> tuple[float, float]:
    """Terminal costates (psi1(T), psi2(T)) of the coupled run from psi0."""
    traj = integrate_coupled(psi0, cost, p)
    return float(traj.psi1[-1]), float(traj.psi2[-1])


def _residual_of(traj: Trajectory) -> tuple[float, float, float]:
    r1 = float(traj.psi1[-1])
    r2 = float(traj.psi2[-1])
    return r1, r2, max(abs(r1), abs(r2))


def solve_shooting(
    cost: RunningCost,
    p: ModelParams,
    residual_tol: float = 1e-10,
) -> SolveReport:
    """Solve the boundary-value problem by single shooting.

    Starts Newton once, from psi(0) of a forward-backward sweep stopped at
    the loose tolerance 1e-3: the sweep finds the optimum's neighbourhood
    from nothing, and full Newton steps polish the start until
    max(|psi1(T)|, |psi2(T)|) <= residual_tol.  Raises ValueError, before
    any integration, unless 0 < residual_tol < inf.
    The solve fails fast and says so (converged=False), never retried:
    when a Jacobian probe diverges, the Jacobian is singular, or a step's
    one trial pass diverges or does not lower the residual norm.  Raises
    NonFiniteError, at the time of divergence, when the seed sweep or the
    coupled pass from its start diverges.
    """
    if not 0.0 < residual_tol < math.inf:
        raise ValueError("residual_tol must be positive")
    try:
        seed, sweeps, _ = _sweep(cost, p, _SEED_TOL)
        pa, pb = float(seed.psi1[0]), float(seed.psi2[0])
        traj = integrate_coupled((pa, pb), cost, p)
    except NonFiniteError as exc:
        raise NonFiniteError(exc.time, "shooting start diverged") from exc
    r1, r2, norm = _residual_of(traj)
    integrations = 1
    iters = 0

    while norm > residual_tol and iters < _MAX_NEWTON_ITERS:
        # Forward-difference Jacobian [[a, b], [c, d]] of the residual.
        da = _FD_EPSILON * max(1.0, abs(pa))
        db = _FD_EPSILON * max(1.0, abs(pb))
        try:
            integrations += 1
            qa1, qa2 = shooting_residual((pa + da, pb), cost, p)
            integrations += 1
            qb1, qb2 = shooting_residual((pa, pb + db), cost, p)
        except NonFiniteError:
            break
        a, c = (qa1 - r1) / da, (qa2 - r2) / da
        b, d = (qb1 - r1) / db, (qb2 - r2) / db
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            break
        trial = (pa + (-r1 * d + r2 * b) / det, pb + (-r2 * a + r1 * c) / det)
        iters += 1
        integrations += 1
        try:
            trial_traj = integrate_coupled(trial, cost, p)
        except NonFiniteError:
            break
        t1, t2, trial_norm = _residual_of(trial_traj)
        if not trial_norm < norm:
            break
        pa, pb = trial
        traj, r1, r2, norm = trial_traj, t1, t2, trial_norm

    return SolveReport(
        trajectory=traj,
        objective=float(traj.z[-1]),
        residual_norm=norm,
        newton_iters=iters,
        converged=norm <= residual_tol,
        solver="shooting",
        sweeps=sweeps,
        coupled_integrations=integrations,
    )


def _sweep(cost: RunningCost, p: ModelParams, tol: float) -> tuple[Trajectory, int, bool]:
    """Forward-backward sweep to a control fixed point within tol.

    Returns (trajectory of the final consistent pass, sweeps, converged).
    """
    n = p.n_steps
    u1 = np.zeros(n + 1)
    u2 = np.zeros(n + 1)
    relaxation = _FBS_RELAXATION
    lowest, stalled = math.inf, 0
    converged = False
    iters = 0

    for iters in range(1, _FBS_MAX_SWEEPS + 1):
        traj = integrate_state_forward(u1, u2, cost, p)
        psi1, psi2 = integrate_adjoint_backward(traj, cost, p)
        law1, law2 = optimal_controls_lanes(
            traj.s, traj.i, psi1, psi2, cost.w1, cost.w2, p.u1_max, p.u2_max
        )
        u1_next = (1.0 - relaxation) * u1 + relaxation * law1
        u2_next = (1.0 - relaxation) * u2 + relaxation * law2
        scale = 1.0 + max(float(np.max(np.abs(u1_next))), float(np.max(np.abs(u2_next))))
        change = max(
            float(np.max(np.abs(u1_next - u1))), float(np.max(np.abs(u2_next - u2)))
        ) / scale
        u1, u2 = u1_next, u2_next
        residual = change / relaxation
        if residual <= 2.0 * tol:
            converged = True
            break
        if residual < lowest:
            lowest, stalled = residual, 0
        else:
            stalled += 1
            if stalled == _FBS_STALL_SWEEPS:
                relaxation *= 0.5
                lowest, stalled = math.inf, 0

    # Final consistent pass under the accepted schedule.
    traj = integrate_state_forward(u1, u2, cost, p)
    psi1, psi2 = integrate_adjoint_backward(traj, cost, p)
    return replace(traj, psi1=psi1, psi2=psi2), iters, converged


def solve_forward_backward(cost: RunningCost, p: ModelParams) -> SolveReport:
    """Solve by forward-backward sweep with relaxed control updates.

    Per sweep: integrate the state forward under the current schedule,
    the costates backward along it, then move each node's control a
    relaxation-fraction toward the clamp law.  The largest control change,
    relative to the control scale and divided by the relaxation, is the
    relaxation-free residual: the schedule's distance from the clamp law.
    The relaxation starts at 0.5 and halves whenever that residual has set
    no new minimum for 5 sweeps in a row, which stops the oscillation a
    fixed 0.5 falls into at long horizons and on the legacy functional.
    Converged when the residual is at most 2e-9 (a control change of 1e-9
    at relaxation 0.5), so a small relaxation cannot fake convergence.
    The terminal-costate residual is zero by construction of the backward
    pass, so convergence is measured on the control fixed point.
    """
    full, iters, converged = _sweep(cost, p, _FBS_TOL)
    return SolveReport(
        trajectory=full,
        objective=float(full.z[-1]),
        residual_norm=_residual_of(full)[2],
        newton_iters=0,
        converged=converged,
        solver="forward-backward",
        sweeps=iters,
        coupled_integrations=0,
    )


def control_gradient(
    u1_levels,
    u2_levels,
    cost: RunningCost,
    p: ModelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint gradient of the objective for a piecewise-constant schedule.

    The schedule holds one (u1, u2) pair per interval of the even
    partition of the grid into len(u1_levels) pieces.  Over interval j,

        dJ/du1_j = integral of (2*w1*u1_j + psi1*S) dt
        dJ/du2_j = integral of (2*w2*u2_j + psi2*I) dt

    with the costates from a backward pass along the schedule's state
    trajectory; the constant part integrates exactly, the rest by
    trapezoid on the fine grid.
    """
    u1_levels = np.asarray(u1_levels, dtype=float)
    u2_levels = np.asarray(u2_levels, dtype=float)
    if u1_levels.shape != u2_levels.shape or u1_levels.ndim != 1:
        raise ValueError("u1_levels and u2_levels must be 1-d and the same length")
    m = len(u1_levels)
    bounds = interval_boundaries(p.n_steps, m)
    u1_nodes = expand_piecewise_schedule(u1_levels, bounds, p.n_steps)
    u2_nodes = expand_piecewise_schedule(u2_levels, bounds, p.n_steps)

    traj = integrate_state_forward(u1_nodes, u2_nodes, cost, p)
    psi1, psi2 = integrate_adjoint_backward(traj, cost, p)

    h = p.horizon / p.n_steps
    g1_fine = psi1 * traj.s
    g2_fine = psi2 * traj.i
    grad1 = np.empty(m)
    grad2 = np.empty(m)
    for j in range(m):
        lo, hi = bounds[j], bounds[j + 1]
        length = (hi - lo) * h
        seg1 = g1_fine[lo:hi + 1]
        seg2 = g2_fine[lo:hi + 1]
        trap1 = h * (np.sum(seg1) - 0.5 * (seg1[0] + seg1[-1]))
        trap2 = h * (np.sum(seg2) - 0.5 * (seg2[0] + seg2[-1]))
        grad1[j] = 2.0 * cost.w1 * u1_levels[j] * length + trap1
        grad2[j] = 2.0 * cost.w2 * u2_levels[j] * length + trap2
    return grad1, grad2
