"""Exhaustive search over piecewise-constant control schedules.

Ground truth for small instances: enumerate every schedule with u1 and u2
constant per interval, each drawn from a uniform level grid that always
contains 0 and u_max, integrate each with the same RK4 scheme and grid as
the main solvers, and keep the minimizer.  The search's value is its
dumbness: no heuristics, and the pruning below drops only prefixes that
provably cannot win.

Schedules that share their first j intervals' levels share their
trajectory up to the end of interval j, so the enumeration walks the
prefix tree breadth first: starting from one root lane (s0, i0, z = 0),
each lane of depth j expands into its L^2 children (one per (u1, u2)
level pair of interval j), which are advanced over that interval's
steps_j fine steps as numpy lanes, in chunks of at most _BATCH.  Each
distinct prefix is integrated once, so the walk costs at most sum_j
L^(2(j+1)) * steps_j lane-steps instead of L^(2m) * n_steps.  The last
depth's chunks are scored as they come; within the guard an earlier
depth holds at most 2^16 = _BATCH prefixes (L = 2, 9 intervals).  A
chunk that ends with NaN or inf lanes, from an interval that starts
before the earliest divergence found so far, steps them again node by
node to find where the first one diverged (sums and products keep a
value non-finite, so the other lanes never were).

Branch and bound (Land & Doig 1960) makes that sum an upper bound.  A
caller may pass a hint, per-node controls such as a solver's optimum.
The hint is averaged over each interval, each mean is rounded to the
nearest level of the grid (a tie goes to the lower level), and the
walk's own lanes score that grid schedule as one lane of Python floats:
the incumbent, inf if the hint or its lane is not finite.  After each
interval the walk drops every lane whose cost so far z exceeds the
incumbent strictly; ties and NaN lanes survive, so no depth is ever
empty.  Only a schedule is taken from the caller, never an objective,
so a bad hint costs work but cannot change the answer.

Dropping is exact when z never decreases along a lane, since then every
completion of a dropped prefix ends above the incumbent, the walk's own
value of a schedule.  The running cost a_i*I + w1*u1^2 + w2*u2^2 has
a_i, w1, w2 >= 0, so z never decreases once every RK4 stage has I >= 0.
That holds whenever h * L <= 1/4, with L = beta*N + u1_max + u2_max +
alpha and N = s0 + i0.  Proof: let a step start at S, I >= 0 with
S + I <= N.  Each stage is S_j = S + c*h*kS, I_j = I + c*h*kI with
c <= 1 and the slopes kS = -S'(beta*I' + u1), kI = I'(beta*S' - u2 -
alpha) of the stage before it.  Assume that stage has 0 <= S' <= S,
0 <= I' <= 2I and S' + I' <= S + I, so I' <= N and each rate in
brackets is at most L in size.  Then S_j >= S - h*L*S >= 3S/4 and
S_j <= S; I_j >= I - h*L*2I >= I/2 and I_j <= I + h*L*2I <= 3I/2; and
S_j + I_j = S + I - c*h*(u1*S' + (u2 + alpha)*I') <= S + I.  The new
node averages the four stage slopes with weights summing to h, so it
too has S, I >= 0 and S + I <= N, and the induction carries on.  The
margins (a quarter of S, half of I) dwarf rounding, a relative 1e-16 per
operation; and in floating point z + dz >= z whenever dz >= 0.  Outside
the condition, for example at 2 steps over a horizon of 10, RK4 drives I
negative, objectives fall to -2e5, and the walk runs unpruned.

The lanes call the same ``model`` kernels as the scalar integrator, and
take each interval's control_effort once: its controls are constant.
Every lane does the arithmetic of one full-length scalar pass, so each
objective equals integrate_state_forward on that schedule bit for bit.
Results are deterministic: a schedule's index reads its levels as base-L
digits (u1 on intervals 0..m-1, then u2), an exact tie goes to the
smaller index whatever the walk order, and a diverged (non-finite)
schedule never wins.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, TooLargeError
from .integrate import interval_boundaries
from .model import ModelParams, RunningCost, control_effort, cost_rate, dynamics_rhs

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
    lane_steps: int  # RK4 steps the prefix walk integrated, summed over lanes

    def __post_init__(self):
        self.u1_levels.setflags(write=False)
        self.u2_levels.setflags(write=False)


def control_levels(u_max: float, n_levels: int) -> np.ndarray:
    """Uniform level grid {0, u_max/(L-1), ..., u_max}; just {0} for L = 1."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    return u_max * (np.arange(n_levels) / max(n_levels - 1, 1))


def exceeds_guard(n_intervals: int, levels_per_control: int) -> bool:
    """True when levels^(2*n_intervals) schedules exceed ENUMERATION_GUARD.

    Any base >= 2 raised to the guard's bit length already exceeds the
    guard, so the exponent is capped there: the answer stays exact and a
    huge n_intervals costs no huge power.
    """
    exponent = min(2 * n_intervals, ENUMERATION_GUARD.bit_length())
    return levels_per_control**exponent > ENUMERATION_GUARD


def _advance_lanes(s, i, z, u1, u2, first: int, last: int, cost: RunningCost, p: ModelParams):
    """Classical RK4 from fine node first to node last, one numpy lane per schedule.

    u1/u2 hold each lane's constant controls for the interval.  Callers silence overflow.
    """
    h = p.horizon / p.n_steps
    h2 = h / 2.0
    h6 = h / 6.0
    beta, alpha, a_i = p.beta, p.alpha, cost.a_i
    effort = control_effort(u1, u2, cost.w1, cost.w2)
    for _k in range(first, last):
        k1s, k1i = dynamics_rhs(s, i, u1, u2, beta, alpha)
        k1z = cost_rate(effort, i, a_i)
        xs, xi = s + h2 * k1s, i + h2 * k1i
        k2s, k2i = dynamics_rhs(xs, xi, u1, u2, beta, alpha)
        k2z = cost_rate(effort, xi, a_i)
        xs, xi = s + h2 * k2s, i + h2 * k2i
        k3s, k3i = dynamics_rhs(xs, xi, u1, u2, beta, alpha)
        k3z = cost_rate(effort, xi, a_i)
        xs, xi = s + h * k3s, i + h * k3i
        k4s, k4i = dynamics_rhs(xs, xi, u1, u2, beta, alpha)
        k4z = cost_rate(effort, xi, a_i)
        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return s, i, z


def _incumbent(cost: RunningCost, p: ModelParams, n_intervals: int, levels_per_control: int,
               hint) -> float:
    """Objective of the hint's nearest grid schedule; inf when it may not prune.

    Raises ValueError unless the hint is two controls of n_steps + 1
    samples each, whether or not it may prune.  Callers silence overflow.
    """
    if hint is None:
        return np.inf
    hint = [np.asarray(u, dtype=float) for u in hint]
    if len(hint) != 2 or any(u.shape != (p.n_steps + 1,) for u in hint):
        raise ValueError(f"hint must be two controls of n_steps + 1 = {p.n_steps + 1} samples each")
    h = p.horizon / p.n_steps
    # The module docstring's exactness condition h * L <= 1/4.
    if (h * (p.beta * (p.s0 + p.i0) + p.u1_max + p.u2_max + p.alpha) > 0.25
            or not all(np.isfinite(u).all() for u in hint)):
        return np.inf
    bounds = interval_boundaries(p.n_steps, n_intervals).tolist()
    schedule = []
    for u, u_max in zip(hint, (p.u1_max, p.u2_max)):
        # A mean outside the box, an overflowed one too, is nearest its bound.
        means = np.clip([u[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:])], 0.0, u_max)
        levels = control_levels(u_max, levels_per_control)
        # argmin takes the first of equally near levels: the lower one.
        schedule.append(levels[np.abs(means[:, None] - levels).argmin(axis=1)].tolist())
    # The walk's own lanes, one lane on Python floats: the bound is the
    # number the walk gives this schedule.  Non-finite values stay so.
    s, i, z = p.s0, p.i0, 0.0
    for u1, u2, first, last in zip(*schedule, bounds[:-1], bounds[1:]):
        s, i, z = _advance_lanes(s, i, z, u1, u2, first, last, cost, p)
    return z if math.isfinite(s) and math.isfinite(i) and math.isfinite(z) else np.inf


def _walk_schedules(
    cost: RunningCost,
    p: ModelParams,
    n_intervals: int,
    levels_per_control: int,
    bound: float = np.inf,
) -> Iterator[tuple[np.ndarray, np.ndarray, int, int]]:
    """Breadth-first walk of the schedule prefix tree.

    Yields (schedule indices, objectives, lane-steps so far, earliest node
    at which a lane's s, i or z was non-finite, else n_steps) per chunk of
    complete schedules, in walk order; the last yield's counts are final.
    Prefixes whose cost so far exceeds bound are not expanded.  Callers silence overflow.
    """
    n_levels = levels_per_control
    n_pairs = n_levels * n_levels
    levels1 = control_levels(p.u1_max, n_levels)
    levels2 = control_levels(p.u2_max, n_levels)
    bounds = interval_boundaries(p.n_steps, n_intervals).tolist()

    # The lanes of one tree depth (prefixes of that many intervals);
    # idx1/idx2 are the prefix's u1 and u2 digits read as base-L numbers.
    lanes = (np.array([float(p.s0)]), np.array([float(p.i0)]), np.zeros(1),
             np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    lane_steps = 0
    earliest = p.n_steps
    for first, last in zip(bounds[:-1], bounds[1:]):
        s, i, z, idx1, idx2 = lanes
        survivors = []
        for start in range(0, len(s) * n_pairs, _BATCH):
            parent, pair = np.divmod(np.arange(start, min(start + _BATCH, len(s) * n_pairs)), n_pairs)
            d1, d2 = np.divmod(pair, n_levels)
            ends = _advance_lanes(s[parent], i[parent], z[parent], levels1[d1], levels2[d2],
                                  first, last, cost, p)
            lane_steps += len(parent) * (last - first)
            if first < earliest and not all(np.isfinite(a).all() for a in ends):
                bad = ~(np.isfinite(ends[0]) & np.isfinite(ends[1]) & np.isfinite(ends[2]))
                state = (s[parent[bad]], i[parent[bad]], z[parent[bad]])
                controls = (levels1[d1[bad]], levels2[d2[bad]])
                for k in range(first, min(last, earliest)):
                    state = _advance_lanes(*state, *controls, k, k + 1, cost, p)
                    if not all(np.isfinite(a).all() for a in state):
                        earliest = k + 1
                        break
            prefix = (idx1[parent] * n_levels + d1, idx2[parent] * n_levels + d2)
            if last == p.n_steps:
                yield prefix[0] * n_levels**n_intervals + prefix[1], ends[2], lane_steps, earliest
            else:
                keep = ~(ends[2] > bound)
                survivors.append(tuple(a[keep] for a in (*ends, *prefix)))
        lanes = tuple(np.concatenate(column) for column in zip(*survivors))


def brute_force_best(
    cost: RunningCost,
    p: ModelParams,
    n_intervals: int,
    levels_per_control: int,
    hint: tuple[np.ndarray, np.ndarray] | None = None,
) -> BruteForceResult:
    """Minimize over all piecewise-constant schedules on the level grid.

    Searches levels^(2*n_intervals) schedules; raises TooLargeError when
    that exceeds the guard (10^6).  Since the level grid contains 0 and
    u_max, the all-zero and all-max policies are always in the search set.
    Schedules whose objective is not finite are skipped; raises
    NonFiniteError, at the earliest time a lane diverged, when that
    leaves none.  hint, per-node (u1, u2) controls of n_steps + 1 values
    each (ValueError otherwise), only bounds the search (see the module
    docstring): the result is the same with or without it, and lane_steps
    counts the work done.
    """
    if exceeds_guard(n_intervals, levels_per_control):
        raise TooLargeError(
            f"{levels_per_control}^(2*{n_intervals}) schedules "
            f"exceeds the enumeration guard ({ENUMERATION_GUARD})"
        )

    best_obj = np.inf
    best_idx = -1
    # Diverged lanes are expected on stiff instances; they rank as +inf so
    # that a NaN cannot hide a chunk's minimum.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _incumbent(cost, p, n_intervals, levels_per_control, hint)
        walk = _walk_schedules(cost, p, n_intervals, levels_per_control, bound)
        for idx, objs, lane_steps, diverged_at in walk:
            objs = np.where(np.isfinite(objs), objs, np.inf)
            obj = objs.min()
            if obj == np.inf:
                continue
            # The walk does not visit schedules in index order, so an exact
            # tie goes to the smaller index explicitly.
            first = int(idx[objs == obj].min())
            if (obj, first) < (best_obj, best_idx):
                best_obj, best_idx = float(obj), first
    if best_idx < 0:
        raise NonFiniteError(diverged_at * (p.horizon / p.n_steps),
                             "every enumerated schedule diverged")

    # Digits of the index (base L, most significant first) select the level
    # of u1 on intervals 0..m-1, then of u2 on intervals 0..m-1.
    n_levels = levels_per_control
    digits = [best_idx // n_levels**k % n_levels for k in reversed(range(2 * n_intervals))]
    return BruteForceResult(
        u1_levels=control_levels(p.u1_max, n_levels)[digits[:n_intervals]],
        u2_levels=control_levels(p.u2_max, n_levels)[digits[n_intervals:]],
        objective=best_obj,
        n_schedules=n_levels ** (2 * n_intervals),
        lane_steps=lane_steps,
    )
