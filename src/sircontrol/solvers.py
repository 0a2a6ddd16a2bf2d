"""Boundary-value solvers for the optimality system.

The first-order conditions turn the control problem into a two-point
boundary-value problem: the state starts at (s0, i0, r0, 0) while the
costates must vanish at the final time.  Two solvers attack it:

  * solve_shooting          single shooting on the unknown initial
                            costates psi(0): Newton steps on the
                            2-vector residual psi(T), forward-difference
                            2x2 Jacobian solved in closed form.  On a
                            grid of 2000 steps or more it first solves a
                            grid 4 times coarser, from psi(0) of a
                            loosely converged forward-backward sweep,
                            then polishes that root on the fine grid by
                            chord steps with the coarse Jacobian; else,
                            or when a level fails, it takes full Newton
                            steps on the fine grid from the sweep's psi(0);
  * solve_forward_backward  forward-backward sweep: alternate forward
                            state / backward costate integrations and the
                            clamp law until the control schedule reaches a
                            fixed point, each next schedule extrapolated
                            from the last five by Anderson mixing.

The sweep only picks the shooting solve's start: shooting's answer is
still the root of its own residual, the terminal costates of the coupled
RK4 pass, at residual_tol, while the sweep's is the fixed point of
separate state and costate passes.  They are two discretizations of the
same conditions, so their agreement on the objective is a meaningful
cross-check.  control_gradient supplies the adjoint-based derivative of
the objective with respect to a piecewise-constant schedule, used for
finite-difference verification.

Only the shooting tolerance, residual_tol, is an argument; the
difference step, the Newton cap, the seed's tolerance, the coarse
grid's ratio and minimum size and every setting of the sweep are the
module constants below, since no caller needs another value.
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
# seeds Newton.  With the seed at 1e-3, full Newton steps failed after one
# step on 5 of 100 draws of the declared parameter box (legacy, T 13-16);
# at 1e-4 none failed.  On the baseline's alpha study (10 alphas, both
# functionals) the seed at 1e-4 costs 271 sweeps on the coarse grid.
_FD_EPSILON = 1e-6
_MAX_NEWTON_ITERS = 50
_SEED_TOL = 1e-4

# Two-level shooting: the coarse grid has n_steps // 4 steps, and runs
# only when that is at least 500.  On the baseline's alpha study the
# 500-step root lies 1e-8 to 2.2e-6 from the 2000-step one (max norm),
# against 1.6e-4 to 6.7e-4 for the 2000-step sweep's psi(0), so the
# study's 20 fine-grid solves take 70 coupled passes (2-4 chord steps
# each) against 251 by full Newton steps from the sweep.
# A ratio of 2 saved less (4.0 s against 2.9 s for the 20 solves, one run
# each on 2 cores); 8 took 2.1 s there but sent 31 of the 100 box draws to
# the fallback, against 19 at 4.
_COARSE_FACTOR = 4
_COARSE_MIN_STEPS = 500

# Forward-backward sweep: sweep cap, tolerance on the control fixed point,
# and Anderson mixing's depth (how many past residuals each step
# extrapolates from) and mixing (the step's fraction of the residual).
_FBS_MAX_SWEEPS = 500
_FBS_TOL = 1e-9
_ANDERSON_DEPTH = 5
_ANDERSON_MIXING = 0.5


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve, returned even on failure (converged=False).

    sweeps counts the forward-backward sweeps the solve ran (the final
    consistent pass excluded): the seed's for shooting, all of them for
    the forward-backward sweep.  newton_iters counts the shooting solve's
    Newton iterations and coupled_integrations its coupled passes,
    Jacobian probes and rejected steps included; both stay 0 for the
    forward-backward sweep.  All three count the work on the report's
    own grid: a shooting solve's coarse level reports its own work in
    coarse, which is None when no coarse level ran, so a solve's total
    is its counts plus coarse's.  residual_norm is max(|psi1(T)|,
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
    coarse: SolveReport | None = None


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
    """Solve the boundary-value problem by single shooting, on two grids.

    On a grid of at least 2000 steps the problem is first solved on a
    grid 4 times coarser, from psi(0) of a forward-backward sweep stopped
    at the loose tolerance 1e-4, by full Newton steps.  Its root lies
    within ~2e-6 of the fine grid's, a hundred times closer than the
    sweep's psi(0), so Newton on the problem's own grid starts there and
    takes chord steps: it keeps the coarse level's last Jacobian across
    accepted steps, one coupled pass each, and recomputes it once at the
    current point after a rejected step.  When either level fails, or on
    a grid below 2000 steps, the problem is solved on its own grid from
    the sweep's psi(0) by full Newton steps alone.  Newton stops when
    max(|psi1(T)|, |psi2(T)|) <= residual_tol.  Raises ValueError, before
    any integration, unless 0 < residual_tol < inf.

    The report's counts are the work on the problem's own grid, a failed
    fine level's included, and its coarse field holds the coarse level's
    report (None when no coarse level ran or its start diverged).  A
    level fails fast and says so (converged=False): when a Jacobian probe
    diverges, the Jacobian is singular, or a step with a Jacobian fresh
    at its point diverges or does not lower the residual norm.  Raises NonFiniteError, at the time of divergence, when the
    seed sweep or the coupled pass from its start diverges on the
    problem's own grid.
    """
    if not 0.0 < residual_tol < math.inf:
        raise ValueError("residual_tol must be positive")
    coarse = None
    if p.n_steps // _COARSE_FACTOR >= _COARSE_MIN_STEPS:
        try:
            coarse, jac = _shoot(cost, replace(p, n_steps=p.n_steps // _COARSE_FACTOR), residual_tol)
        except NonFiniteError:
            pass
    # Work of a failed fine level from the coarse start: (Newton steps, passes).
    spent = (0, 0)
    if coarse is not None and coarse.converged:
        start = (float(coarse.trajectory.psi1[0]), float(coarse.trajectory.psi2[0]))
        try:
            fine, _ = _shoot(cost, p, residual_tol, (start, jac))
        except NonFiniteError:
            spent = (0, 1)
        else:
            if fine.converged:
                return replace(fine, coarse=coarse)
            spent = (fine.newton_iters, fine.coupled_integrations)
    report, _ = _shoot(cost, p, residual_tol)
    return replace(
        report,
        newton_iters=report.newton_iters + spent[0],
        coupled_integrations=report.coupled_integrations + spent[1],
        coarse=coarse,
    )


# A 2x2 Jacobian [[a, b], [c, d]] of the shooting residual, as (a, b, c, d).
_Jacobian = tuple[float, float, float, float]


def _shoot(
    cost: RunningCost,
    p: ModelParams,
    residual_tol: float,
    start: tuple[tuple[float, float], _Jacobian | None] | None = None,
) -> tuple[SolveReport, _Jacobian | None]:
    """Newton on the shooting residual of p's own grid.

    With start None, Newton starts from psi(0) of the seed sweep and
    takes full steps, a fresh forward-difference Jacobian each.  With
    start = (psi0, jac), it starts from psi0 and takes chord steps with
    jac (None to compute one), refreshed only after a rejected step.
    Returns the report and the last Jacobian used (None when Newton
    took no step).
    """
    try:
        if start is None:
            seed, sweeps, _ = _sweep(cost, p, _SEED_TOL)
            pa, pb = float(seed.psi1[0]), float(seed.psi2[0])
            jac = None
        else:
            (pa, pb), jac = start
            sweeps = 0
        traj = integrate_coupled((pa, pb), cost, p)
    except NonFiniteError as exc:
        raise NonFiniteError(exc.time, "shooting start diverged") from exc
    r1, r2, norm = _residual_of(traj)
    integrations = 1
    iters = 0

    while norm > residual_tol and iters < _MAX_NEWTON_ITERS:
        fresh = jac is None or start is None
        if fresh:
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
            jac = ((qa1 - r1) / da, (qb1 - r1) / db, (qa2 - r2) / da, (qb2 - r2) / db)
        a, b, c, d = jac
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            break
        trial = (pa + (-r1 * d + r2 * b) / det, pb + (-r2 * a + r1 * c) / det)
        iters += 1
        integrations += 1
        try:
            trial_traj = integrate_coupled(trial, cost, p)
        except NonFiniteError:
            trial_norm = math.inf
        else:
            t1, t2, trial_norm = _residual_of(trial_traj)
        if not trial_norm < norm:
            if fresh:
                break
            jac = None  # a stale Jacobian gets one fresh retry
            continue
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
    ), jac


def _anderson_weights(dfs: list[np.ndarray], f: np.ndarray) -> list[float]:
    """Weights gamma that minimise |f - sum_j gamma_j dfs[j]| in 2-norm.

    Modified Gram-Schmidt with elementwise sums and a back-substitution
    in Python, so that no LAPACK or BLAS routine runs: the first
    np.linalg call alone adds ~1.3 MiB of peak RSS.  A column whose part
    orthogonal to the columns before it is at most 1e-8 of its norm is
    nearly dependent and gets gamma = 0.
    """
    qs: list[np.ndarray] = []
    r_cols: list[list[float]] = []  # column k of R: R[0..k, k]
    kept: list[int] = []
    for j, col in enumerate(dfs):
        norm = math.sqrt(float(np.sum(col * col)))
        v = col
        r_col = []
        for q in qs:
            c = float(np.sum(q * v))
            v = v - c * q
            r_col.append(c)
        diag = math.sqrt(float(np.sum(v * v)))
        if not diag > 1e-8 * norm:
            continue
        qs.append(v / diag)
        r_cols.append(r_col + [diag])
        kept.append(j)
    rhs = [float(np.sum(q * f)) for q in qs]
    x = [0.0] * len(qs)
    for k in reversed(range(len(qs))):
        acc = rhs[k] - sum(r_cols[i][k] * x[i] for i in range(k + 1, len(qs)))
        x[k] = acc / r_cols[k][k]
    gamma = [0.0] * len(dfs)
    for k, j in enumerate(kept):
        gamma[j] = x[k]
    return gamma


def _sweep(cost: RunningCost, p: ModelParams, tol: float) -> tuple[Trajectory, int, bool]:
    """Forward-backward sweep to a control fixed point within tol.

    Anderson mixing on u = Phi(u), where u stacks the 2*(n+1) node
    controls and Phi is a state pass, a costate pass and the clamp law.
    Returns (trajectory of the final consistent pass under Phi(u),
    sweeps, converged).
    """
    n = p.n_steps
    upper = np.concatenate((np.full(n + 1, p.u1_max), np.full(n + 1, p.u2_max)))
    u = np.zeros(2 * (n + 1))
    u_prev = f_prev = None
    dus: list[np.ndarray] = []  # newest first: u_k - u_{k-1}
    dfs: list[np.ndarray] = []  # and f_k - f_{k-1}, f = Phi(u) - u
    converged = False
    iters = 0

    for iters in range(1, _FBS_MAX_SWEEPS + 1):
        traj = integrate_state_forward(u[:n + 1], u[n + 1:], cost, p)
        psi1, psi2 = integrate_adjoint_backward(traj, cost, p)
        law = np.concatenate(optimal_controls_lanes(
            traj.s, traj.i, psi1, psi2, cost.w1, cost.w2, p.u1_max, p.u2_max
        ))
        f = law - u
        if float(np.max(np.abs(f))) / (1.0 + float(np.max(law))) <= 2.0 * tol:
            converged = True
            break
        if f_prev is not None:
            dus.insert(0, u - u_prev)
            dfs.insert(0, f - f_prev)
            del dus[_ANDERSON_DEPTH:], dfs[_ANDERSON_DEPTH:]
        step = u + _ANDERSON_MIXING * f
        for g, du, df in zip(_anderson_weights(dfs, f), dus, dfs):
            step -= g * (du + _ANDERSON_MIXING * df)
        u_prev, f_prev = u, f
        u = np.clip(step, 0.0, upper)

    # Final consistent pass under the accepted schedule.
    traj = integrate_state_forward(law[:n + 1], law[n + 1:], cost, p)
    psi1, psi2 = integrate_adjoint_backward(traj, cost, p)
    return replace(traj, psi1=psi1, psi2=psi2), iters, converged


def solve_forward_backward(cost: RunningCost, p: ModelParams) -> SolveReport:
    """Solve by forward-backward sweep with Anderson-mixed control updates.

    The sweep map Phi integrates the state forward under the current
    schedule u, the costates backward along it, and applies the clamp
    law at every node.  Its fixed point u = Phi(u) is found by Anderson
    mixing (Anderson 1965; Walker & Ni 2011): each next schedule is
    u + 0.5 * f, f = Phi(u) - u, corrected by the least-squares
    combination of the last 5 steps that best cancels f, and clipped to
    the control box.  Converged when max|Phi(u) - u| / (1 + max|Phi(u)|)
    is at most 2e-9; Phi(u) is then the accepted schedule.  On the
    baseline this takes 19-24 sweeps across alpha 0.05-0.5 under both
    functionals, and 20-26 at horizons 5 to 18.  The terminal-costate
    residual is zero by construction of the backward pass, so
    convergence is measured on the control fixed point.
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
