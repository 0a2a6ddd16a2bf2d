"""Exhaustive search over piecewise-constant control schedules.

Ground truth for small instances: enumerate every schedule with u1 and u2
constant per interval, each drawn from a uniform level grid that always
contains 0 and u_max, integrate each with the same RK4 scheme and grid as
the main solvers, and keep the minimizer.  The search's value is its
dumbness; no heuristics.

The enumeration is evaluated in batches with numpy, one array lane per
schedule.  The lanes call the same ``model.state_rhs`` kernel as the
scalar integrator, so each lane's objective equals integrate_state_forward
on that schedule bit for bit; their RK4 loop stays separate from the
scalar ones because it advances arrays, not floats.  Results are
deterministic: schedules are scanned in lexicographic order, ties keep the
earliest, and a diverged (non-finite) schedule never wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, TooLargeError
from .integrate import interval_boundaries
from .model import ModelParams, RunningCost, state_rhs

__all__ = ["BruteForceResult", "control_levels", "brute_force_best"]

ENUMERATION_GUARD = 10**6
_BATCH = 65536


@dataclass(frozen=True)
class BruteForceResult:
    """Best schedule found by exhaustive enumeration."""

    u1_levels: np.ndarray
    u2_levels: np.ndarray
    objective: float
    n_schedules: int

    def __post_init__(self):
        self.u1_levels.setflags(write=False)
        self.u2_levels.setflags(write=False)


def control_levels(u_max: float, n_levels: int) -> np.ndarray:
    """Uniform level grid {0, u_max/(L-1), ..., u_max}; just {0} for L = 1."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    if n_levels == 1:
        return np.zeros(1)
    return u_max * (np.arange(n_levels) / (n_levels - 1))


def _batch_objectives(
    u1_grid: np.ndarray,
    u2_grid: np.ndarray,
    bounds: np.ndarray,
    cost: RunningCost,
    p: ModelParams,
) -> np.ndarray:
    """Terminal objective of every schedule in the batch.

    u1_grid/u2_grid have shape (batch, n_intervals); interval j drives the
    fine steps [bounds[j], bounds[j+1]).  Classical RK4, one numpy lane per
    schedule.
    """
    h = p.horizon / p.n_steps
    h2 = h / 2.0
    h6 = h / 6.0
    beta, alpha = p.beta, p.alpha
    a_i, w1, w2 = cost.a_i, cost.w1, cost.w2
    rhs = state_rhs

    m = u1_grid.shape[0]
    s = np.full(m, float(p.s0))
    i = np.full(m, float(p.i0))
    z = np.zeros(m)
    for j in range(len(bounds) - 1):
        u1 = np.ascontiguousarray(u1_grid[:, j])
        u2 = np.ascontiguousarray(u2_grid[:, j])
        for _k in range(bounds[j], bounds[j + 1]):
            k1s, k1i, _, _, k1z, _ = rhs(s, i, u1, u2, beta, alpha, a_i, w1, w2)
            k2s, k2i, _, _, k2z, _ = rhs(s + h2 * k1s, i + h2 * k1i, u1, u2, beta, alpha, a_i, w1, w2)
            k3s, k3i, _, _, k3z, _ = rhs(s + h2 * k2s, i + h2 * k2i, u1, u2, beta, alpha, a_i, w1, w2)
            k4s, k4i, _, _, k4z, _ = rhs(s + h * k3s, i + h * k3i, u1, u2, beta, alpha, a_i, w1, w2)
            s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
            z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return z


def brute_force_best(
    cost: RunningCost,
    p: ModelParams,
    n_intervals: int,
    levels_per_control: int,
) -> BruteForceResult:
    """Minimize over all piecewise-constant schedules on the level grid.

    Enumerates levels^(2*n_intervals) schedules; raises TooLargeError when
    that exceeds the guard (10^6).  Since the level grid contains 0 and
    u_max, the all-zero and all-max policies are always in the search set.
    Schedules whose objective is not finite are skipped; raises
    NonFiniteError when that leaves none.
    """
    total = levels_per_control ** (2 * n_intervals)
    if total > ENUMERATION_GUARD:
        raise TooLargeError(
            f"{levels_per_control}^(2*{n_intervals}) = {total} schedules "
            f"exceeds the enumeration guard ({ENUMERATION_GUARD})"
        )

    levels1 = control_levels(p.u1_max, levels_per_control)
    levels2 = control_levels(p.u2_max, levels_per_control)
    bounds = interval_boundaries(p.n_steps, n_intervals)

    # Digit j of a schedule index (base L, most significant first) selects
    # the level of: u1 on intervals 0..m-1, then u2 on intervals 0..m-1.
    n_digits = 2 * n_intervals
    weights = levels_per_control ** (n_digits - 1 - np.arange(n_digits))

    best_obj = np.inf
    best_idx = -1
    for start in range(0, total, _BATCH):
        idx = np.arange(start, min(start + _BATCH, total))
        digits = (idx[:, None] // weights[None, :]) % levels_per_control
        u1_grid = levels1[digits[:, :n_intervals]]
        u2_grid = levels2[digits[:, n_intervals:]]
        # Diverged lanes are expected on stiff instances; they rank as +inf
        # so that a NaN cannot win argmin and hide the batch's minimum.
        with np.errstate(over="ignore", invalid="ignore"):
            objs = _batch_objectives(u1_grid, u2_grid, bounds, cost, p)
        objs[~np.isfinite(objs)] = np.inf
        j = int(np.argmin(objs))
        if objs[j] < best_obj:
            best_obj = float(objs[j])
            best_idx = int(idx[j])
    if best_idx < 0:
        raise NonFiniteError(p.horizon, "every enumerated schedule diverged")

    best_digits = (best_idx // weights) % levels_per_control
    return BruteForceResult(
        u1_levels=levels1[best_digits[:n_intervals]].astype(float),
        u2_levels=levels2[best_digits[n_intervals:]].astype(float),
        objective=best_obj,
        n_schedules=total,
    )
