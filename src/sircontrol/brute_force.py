"""Exhaustive search over piecewise-constant control schedules.

Ground truth for small instances: enumerate every schedule with u1 and u2
constant per interval, each drawn from a uniform level grid that always
contains 0 and u_max, integrate each with the same RK4 scheme and grid as
the main solvers, and keep the minimizer.  The search's value is its
dumbness: no heuristics, and the pruning below drops only prefixes that
provably cannot win.

Schedules that share their first j intervals' levels share their
trajectory up to the end of interval j, so the enumeration walks the
prefix tree depth first: starting from one root lane (s0, i0, z = 0), each
lane of depth j expands into its L^2 children (one per (u1, u2) level
pair of interval j), which are advanced over that interval's steps_j fine
steps as numpy lanes.  Each distinct prefix is integrated once, so the
walk costs at most sum_j L^(2(j+1)) * steps_j lane-steps instead of
L^(2m) * n_steps.  Children are expanded in chunks of at most _BATCH
lanes, so no more than about m * _BATCH lanes are held at once.

Branch and bound (Land & Doig 1960) makes that sum an upper bound.  A
caller may pass a hint, per-node controls such as a solver's optimum.
The hint is averaged over each interval, each mean is rounded to the
nearest level of the grid (a tie goes to the lower level), and that grid
schedule, integrated by integrate_state_forward, gives the incumbent:
the objective of a schedule in the search set.  After each interval the
walk drops every lane whose cost so far z exceeds the incumbent
strictly; ties and NaN lanes survive.  Only a schedule is taken from the
caller, never an objective, so a bad hint costs work but cannot change
the answer.

Dropping is exact when z never decreases along a lane, since then every
completion of a dropped prefix ends above the incumbent, which the
search set contains.  The running cost a_i*I + w1*u1^2 + w2*u2^2 has
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
negative, objectives fall to -2e5, and the walk runs unpruned.  A hint
that is not finite, or whose schedule diverges, also leaves it unpruned.

The lanes call the same ``model.state_rhs`` kernel as the scalar
integrator and every lane does the arithmetic of one full-length scalar
pass, so each objective equals integrate_state_forward on that schedule
bit for bit.  Results are deterministic: a schedule's index reads its
levels as base-L digits (u1 on intervals 0..m-1, then u2), an exact tie
goes to the smaller index whatever the walk order, and a diverged
(non-finite) schedule never wins.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, TooLargeError
from .integrate import expand_piecewise_schedule, integrate_state_forward, interval_boundaries
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
    lane_steps: int  # RK4 steps the prefix walk integrated, summed over lanes

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

    u1/u2 hold each lane's constant controls for the interval.
    """
    h = p.horizon / p.n_steps
    h2 = h / 2.0
    h6 = h / 6.0
    beta, alpha = p.beta, p.alpha
    a_i, w1, w2 = cost.a_i, cost.w1, cost.w2
    rhs = state_rhs
    for _k in range(first, last):
        k1s, k1i, _, _, k1z, _ = rhs(s, i, u1, u2, beta, alpha, a_i, w1, w2)
        k2s, k2i, _, _, k2z, _ = rhs(s + h2 * k1s, i + h2 * k1i, u1, u2, beta, alpha, a_i, w1, w2)
        k3s, k3i, _, _, k3z, _ = rhs(s + h2 * k2s, i + h2 * k2i, u1, u2, beta, alpha, a_i, w1, w2)
        k4s, k4i, _, _, k4z, _ = rhs(s + h * k3s, i + h * k3i, u1, u2, beta, alpha, a_i, w1, w2)
        s = s + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + h6 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return s, i, z


def _incumbent(cost: RunningCost, p: ModelParams, n_intervals: int, levels_per_control: int,
               hint) -> float:
    """Objective of the hint's nearest grid schedule; inf when it may not prune.

    Raises ValueError unless the hint is two controls of n_steps + 1
    samples each, whether or not it may prune.
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
    bounds = interval_boundaries(p.n_steps, n_intervals)
    schedule = []
    for u, u_max in zip(hint, (p.u1_max, p.u2_max)):
        means = np.array([u[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:])])
        levels = control_levels(u_max, levels_per_control)
        # argmin takes the first of equally near levels: the lower one.
        nearest = levels[np.abs(means[:, None] - levels).argmin(axis=1)]
        schedule.append(expand_piecewise_schedule(nearest, bounds, p.n_steps))
    try:
        return float(integrate_state_forward(*schedule, cost, p).z[-1])
    except NonFiniteError:
        return np.inf


def _divergence_time(
    cost: RunningCost, p: ModelParams, n_intervals: int, levels_per_control: int
) -> float:
    """Earliest time at which a lane of the walk turned non-finite.

    Walks the prefix tree again one step at a time, and stops each lane
    at the earliest divergence found so far, so only the error path of an
    enumeration in which every schedule diverged pays for the checks.
    """
    h = p.horizon / p.n_steps
    earliest = p.n_steps

    def advance_checked(s, i, z, u1, u2, first, last, cost, p):
        nonlocal earliest
        for k in range(first, min(last, earliest)):
            s, i, z = _advance_lanes(s, i, z, u1, u2, k, k + 1, cost, p)
            if not (np.isfinite(s).all() and np.isfinite(i).all() and np.isfinite(z).all()):
                earliest = k + 1
                break
        return s, i, z

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in _walk_schedules(cost, p, n_intervals, levels_per_control, advance_checked):
            pass
    return earliest * h


def _walk_schedules(
    cost: RunningCost,
    p: ModelParams,
    n_intervals: int,
    levels_per_control: int,
    advance=_advance_lanes,
    bound: float = np.inf,
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Depth-first walk of the schedule prefix tree.

    Yields (schedule indices, objectives, lane-steps so far) for each chunk
    of complete schedules, in walk order, not index order.  The last
    yield follows the last integration, so its count is the total.
    advance integrates a chunk of lanes over one interval's fine steps.
    Prefixes whose cost so far exceeds bound are not expanded.
    """
    n_levels = levels_per_control
    n_pairs = n_levels * n_levels
    levels1 = control_levels(p.u1_max, n_levels)
    levels2 = control_levels(p.u2_max, n_levels)
    bounds = interval_boundaries(p.n_steps, n_intervals).tolist()
    u2_weight = n_levels**n_intervals

    # Each frame holds the lanes of one tree depth (prefixes of that many
    # intervals) and the next child index to expand.  idx1/idx2 are the
    # prefix's u1 and u2 digits read as base-L numbers.
    root = (np.array([float(p.s0)]), np.array([float(p.i0)]), np.zeros(1),
            np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    frames = [[root, 0]]
    lane_steps = 0
    while frames:
        (s, i, z, idx1, idx2), start = frames[-1]
        stop = min(start + _BATCH, len(s) * n_pairs)
        if start == stop:
            frames.pop()
            continue
        frames[-1][1] = stop
        depth = len(frames) - 1
        parent, pair = np.divmod(np.arange(start, stop), n_pairs)
        d1, d2 = np.divmod(pair, n_levels)
        first, last = bounds[depth], bounds[depth + 1]
        lanes = advance(
            s[parent], i[parent], z[parent], levels1[d1], levels2[d2], first, last, cost, p
        )
        prefix = (idx1[parent] * n_levels + d1, idx2[parent] * n_levels + d2)
        lane_steps += len(parent) * (last - first)
        if depth == n_intervals - 1:
            yield prefix[0] * u2_weight + prefix[1], lanes[2], lane_steps
            continue
        frame = (*lanes, *prefix)
        keep = ~(lanes[2] > bound)
        if not keep.all():
            frame = tuple(a[keep] for a in frame)
        frames.append([frame, 0])


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

    bound = _incumbent(cost, p, n_intervals, levels_per_control, hint)
    best_obj = np.inf
    best_idx = -1
    lane_steps = 0
    # Diverged lanes are expected on stiff instances; they rank as +inf so
    # that a NaN cannot hide a chunk's minimum.
    with np.errstate(over="ignore", invalid="ignore"):
        walk = _walk_schedules(cost, p, n_intervals, levels_per_control, bound=bound)
        for idx, objs, lane_steps in walk:
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
        diverged_at = _divergence_time(cost, p, n_intervals, levels_per_control)
        raise NonFiniteError(diverged_at, "every enumerated schedule diverged")

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
