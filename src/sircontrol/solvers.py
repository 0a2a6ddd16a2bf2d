"""Boundary-value solvers for the optimality system.

The first-order conditions turn the control problem into a two-point
boundary-value problem: the state starts at (s0, i0, r0, 0) while the
costates must vanish at the final time.  Two solvers attack it:

  * solve_shooting          single shooting on the unknown initial
                            costates psi(0): Newton steps on the 2-vector
                            residual psi(T), from psi(0) of a
                            forward-backward sweep on a grid of at most
                            500 steps, each with the exact 2x2 Jacobian
                            of its coupled RK4 pass, solved in closed form;
  * solve_forward_backward  forward-backward sweep: alternate forward
                            state / backward costate integrations, the
                            controls read piecewise linearly between
                            nodes, and the clamp law until the control
                            schedule reaches a fixed point, each next
                            schedule extrapolated from the last step by
                            Anderson mixing of depth one, on the
                            problem's grid from the schedule of the same
                            500-step seed sweep that shooting starts
                            from, interpolated.

Shooting, and the forward-backward sweep on grids finer than 500 steps,
start from one seed sweep on at most 500 steps.  Each solve runs its own,
so shooting followed by the sweep on one problem runs the seed twice.
The sweep only picks the shooting solve's start: shooting's answer is
still the root of its own residual, the terminal costates of the coupled
RK4 pass, at residual_tol, while the sweep's is the fixed point of
separate state and costate passes.  They are two discretizations of the
same conditions, so their agreement on the objective is a meaningful
cross-check.

Every pass, and the coupled pass's derivative, comes from integrate.py;
this module holds only Newton and the sweep.  Only
residual_tol is an argument; the Newton cap, the seed's tolerance and
grid and every setting of the sweep are the module constants below,
since no caller needs another value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteError
from .integrate import (Trajectory, coupled_jacobian, integrate_adjoint_backward, integrate_coupled,
                        integrate_state_forward)
from .model import ModelParams, RunningCost, optimal_controls_lanes

__all__ = [
    "SolveReport",
    "shooting_residual",
    "solve_shooting",
    "solve_forward_backward",
]

# Shooting: Newton iteration cap, and the seed sweep's tolerance and
# largest grid (the same seed starts the forward-backward sweep on finer
# grids).  The sweep's psi(0) is second-order in h: on the baseline at
# 500 steps it lies 6.9e-6 (new) and 8.1e-6 (legacy) from the 4000-step
# shooting root, against 9.4e-4 and 2.6e-3 when each control was held
# constant over a step, so Newton converges from it on the problem's own
# grid in 2-3 steps across the declared box.
_MAX_NEWTON_ITERS = 50
_SEED_TOL = 1e-6
_SEED_STEPS = 500

# Forward-backward sweep: sweep cap, tolerance on the control fixed point,
# and Anderson(1)'s mixing (the step's fraction of the residual).
_FBS_MAX_SWEEPS = 500
_FBS_TOL = 1e-9
_ANDERSON_MIXING = 0.7


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve, returned even on failure (converged=False).

    sweeps counts the forward-backward sweeps the answer rests on, one
    state and one costate pass each: the seed's for shooting, the seed's
    and the problem grid's for the forward-backward sweep (a seed that
    diverges counts none).  newton_iters counts the shooting solve's
    Newton steps, a rejected last step included; each is one coupled pass
    beyond the one from the start, and it stays 0 for the forward-backward
    sweep.  residual_norm is max(|psi1(T)|, |psi2(T)|), which the sweep's
    backward pass makes exactly 0; the sweep's converged flag says that
    its control fixed point was reached within 500 sweeps.
    """

    trajectory: Trajectory
    objective: float
    residual_norm: float
    newton_iters: int
    converged: bool
    solver: str
    sweeps: int


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

    The start is psi(0) of a forward-backward sweep run to 1e-6 on the
    problem's grid, or on 500 steps when the grid is finer.  The
    sweep reads its controls piecewise linearly, so its psi(0) is
    second-order in h and lies within ~1e-5 of the root.  Newton then
    takes full steps on the problem's own grid, one coupled pass each,
    with the exact Jacobian of the pass it starts from
    (integrate.coupled_jacobian), until max(|psi1(T)|, |psi2(T)|) <=
    residual_tol.  Raises ValueError, before any integration, unless
    0 < residual_tol < inf.

    The report counts the seed's sweeps and the Newton steps; the solve
    makes 1 + newton_iters coupled passes.  It fails fast and says so
    (converged=False) when the Jacobian is singular or not finite, which
    counts no step, or when a step diverges or does not lower the
    residual norm.  Raises NonFiniteError, at the time of divergence on
    its grid, when the seed sweep or the coupled pass from its start
    diverges: a seed grid that diverges is not retried on a finer one.
    """
    if not 0.0 < residual_tol < math.inf:
        raise ValueError("residual_tol must be positive")
    try:
        seed, sweeps, _ = _sweep(cost, _seed_grid(p), _SEED_TOL)
        pa, pb = float(seed.psi1[0]), float(seed.psi2[0])
        traj = integrate_coupled((pa, pb), cost, p)
    except NonFiniteError as exc:
        raise NonFiniteError(exc.time, "shooting start diverged") from exc
    r1, r2, norm = _residual_of(traj)
    iters = 0

    while norm > residual_tol and iters < _MAX_NEWTON_ITERS:
        a, b, c, d = coupled_jacobian(traj, cost, p)
        det = a * d - b * c
        if not (det != 0.0 and math.isfinite(det)):
            break
        iters += 1
        trial = (pa + (-r1 * d + r2 * b) / det, pb + (-r2 * a + r1 * c) / det)
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
    )


def _seed_grid(p: ModelParams) -> ModelParams:
    """The seed sweep's problem: p on at most 500 steps, equal to p when p has no more."""
    return replace(p, n_steps=min(p.n_steps, _SEED_STEPS))


def _sweep(
    cost: RunningCost, p: ModelParams, tol: float, u: np.ndarray | None = None
) -> tuple[Trajectory, int, bool]:
    """Forward-backward sweep to a control fixed point within tol.

    Anderson(1) mixing on u = Phi(u), where u stacks the 2*(n+1) node
    controls and Phi is a state pass, a costate pass (both reading the
    controls piecewise linearly) and the clamp law: with f = Phi(u) - u
    and du, df the differences from the previous (u, f), the next
    schedule is u + b*f - g*(du + b*df), with b the mixing and
    g = <df, f> / <df, df> (no correction when df = 0), clipped to the
    control box.  The first schedule is u, the stacked node controls
    (u1, u2) inside the box, or zero controls when u is None.
    Returns (the last sweep's state and costates under its schedule u,
    sweeps, converged): when converged, the pass whose u passed the test.
    """
    n = p.n_steps
    upper = np.concatenate((np.full(n + 1, p.u1_max), np.full(n + 1, p.u2_max)))
    if u is None:
        u = np.zeros(2 * (n + 1))
    u_prev = f_prev = None  # the previous (u, f) pair, f = Phi(u) - u
    converged = False
    iters = 0

    for iters in range(1, _FBS_MAX_SWEEPS + 1):
        traj = integrate_state_forward(u[:n + 1], u[n + 1:], cost, p, linear=True)
        psi1, psi2 = integrate_adjoint_backward(traj, cost, p)
        law = np.concatenate(optimal_controls_lanes(
            traj.s, traj.i, psi1, psi2, cost.w1, cost.w2, p.u1_max, p.u2_max
        ))
        f = law - u
        if float(np.max(np.abs(f))) / (1.0 + float(np.max(law))) <= 2.0 * tol:
            converged = True
            break
        step = u + _ANDERSON_MIXING * f
        if f_prev is not None:
            # Elementwise sums, not np.dot, so that no BLAS or LAPACK
            # routine runs: the first one adds ~1.3 MiB of peak RSS.
            du, df = u - u_prev, f - f_prev
            dfdf = float(np.sum(df * df))
            if dfdf != 0.0:
                step -= float(np.sum(df * f)) / dfdf * (du + _ANDERSON_MIXING * df)
        u_prev, f_prev = u, f
        u = np.clip(step, 0.0, upper)

    return replace(traj, psi1=psi1, psi2=psi2), iters, converged


def solve_forward_backward(cost: RunningCost, p: ModelParams) -> SolveReport:
    """Solve by forward-backward sweep with Anderson-mixed control updates.

    The sweep map Phi integrates the state forward under the current
    schedule u, the costates backward along it, and applies the clamp
    law at every node.  Its fixed point u = Phi(u) is found by Anderson
    mixing of depth one (Anderson 1965; Walker & Ni 2011): each next
    schedule is u + 0.7 * f, f = Phi(u) - u, corrected by the multiple
    of the last step that best cancels f, and clipped to the control
    box.  Converged when max|Phi(u) - u| / (1 + max|Phi(u)|) is at most
    2e-9; the report holds that u and its pass.  The terminal-costate
    residual is zero by construction of the backward pass, so
    convergence is measured on the control fixed point.

    On grids finer than 500 steps the sweep starts from a coarse
    answer (nested iteration): the seed sweep that solve_shooting runs,
    to 1e-6 on 500 steps, its node schedule interpolated linearly to the
    problem's grid.  When that seed diverges, the sweep starts from
    zero controls, as it always does on grids of at most 500 steps.
    On the baseline this takes 13-17 seed sweeps and 10-14 on 2000
    steps across alpha 0.05-0.5 under both functionals, and 12-20 plus
    8-14 at horizons 5 to 18.

    Both passes read the schedule piecewise linearly between nodes
    (integrate.py), so the sweep's state, costates and objective are
    second-order in h: on the baseline at 2000 steps its objective lies
    within 4e-10 of shooting's under either functional, against 1.6e-7
    (new) and 3.8e-7 (legacy) with each control held constant over a
    step.
    """
    start, seed_sweeps = None, 0
    if p.n_steps > _SEED_STEPS:
        try:
            seed, seed_sweeps, _ = _sweep(cost, _seed_grid(p), _SEED_TOL)
        except NonFiniteError:
            pass  # the fine sweep may still converge from zero controls
        else:
            nodes = np.linspace(0.0, _SEED_STEPS, p.n_steps + 1)
            coarse = np.arange(_SEED_STEPS + 1)
            start = np.concatenate([np.interp(nodes, coarse, u) for u in (seed.u1, seed.u2)])
    full, iters, converged = _sweep(cost, p, _FBS_TOL, start)
    return SolveReport(
        trajectory=full,
        objective=float(full.z[-1]),
        residual_norm=_residual_of(full)[2],
        newton_iters=0,
        converged=converged,
        solver="forward-backward",
        sweeps=seed_sweeps + iters,
    )
