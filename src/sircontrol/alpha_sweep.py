"""Dependence of the optimal objective on the death rate alpha.

For each alpha the problem is solved twice, once per objective
convention, so the comparison that motivates the corrected functional is
a single artifact: the legacy form rewards a rising death rate (its
optimal value falls as alpha grows).  The new form does not at c3 = 10
but does where deaths are cheap: at alpha 0.5, for c3 below 0.4875.

Every solve stands alone, so a row equals the direct solves at its
alpha, and the 2 * len(alphas) solves run in min(2 * len(alphas),
usable CPUs) worker processes; their rows equal the serial ones exactly.
The workers are forked, so they see the parent's imported modules as
they are, and the sweep needs the ``fork`` start method and
``os.sched_getaffinity`` (Linux).  No worker outlives the call.  One row
per alpha is emitted in input order, and failed solves are retained with
their converged flag down rather than dropped.  A solve whose shooting
start diverges fails too: nan values, 0 Newton steps.  Any other error
of a solve reaches the caller.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat

from .errors import NonFiniteError
from .model import FUNCTIONAL_LEGACY, FUNCTIONAL_NEW, ModelParams, running_cost
from .solvers import solve_shooting

__all__ = ["SweepRow", "sweep_alpha"]


@dataclass(frozen=True)
class SweepRow:
    """Solver outcomes for both functionals at one alpha."""

    alpha: float
    objective_new: float
    objective_legacy: float
    defective_terminal_new: float
    converged_new: bool
    converged_legacy: bool
    residual_new: float
    residual_legacy: float
    newton_iters_new: int
    newton_iters_legacy: int


def _outcome(p: ModelParams, residual_tol: float) -> tuple[float, float, bool, float, int]:
    """(objective, D(T), converged, residual, Newton steps) of one solve."""
    try:
        rep = solve_shooting(running_cost(p), p, residual_tol)
    except NonFiniteError:  # a diverging start is a failed solve
        return math.nan, math.nan, False, math.nan, 0
    return rep.objective, float(rep.trajectory.d[-1]), rep.converged, rep.residual_norm, rep.newton_iters


def _row(alpha: float, new: tuple, legacy: tuple) -> SweepRow:
    obj_new, d_new, conv_new, res_new, iters_new = new
    obj_legacy, _, conv_legacy, res_legacy, iters_legacy = legacy
    return SweepRow(
        alpha=alpha,
        objective_new=obj_new,
        objective_legacy=obj_legacy,
        defective_terminal_new=d_new,
        converged_new=conv_new,
        converged_legacy=conv_legacy,
        residual_new=res_new,
        residual_legacy=res_legacy,
        newton_iters_new=iters_new,
        newton_iters_legacy=iters_legacy,
    )


def sweep_alpha(
    base: ModelParams,
    alphas,
    residual_tol: float = 1e-10,
) -> list[SweepRow]:
    """Solve both functionals at every alpha; one row per alpha, input order.

    alphas may be any sequence of numbers, a numpy array too; the rows
    carry them as Python floats.  residual_tol is solve_shooting's,
    which rejects it before any integration unless 0 < residual_tol < inf.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    # Built here, so an invalid parameter set raises before any worker starts.
    problems = [replace(base, alpha=a, functional=f) for a in alphas
                for f in (FUNCTIONAL_NEW, FUNCTIONAL_LEGACY)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(problems), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
        outcomes = list(pool.map(_outcome, problems, repeat(residual_tol)))
    return [_row(a, new, legacy) for a, new, legacy in zip(alphas, outcomes[::2], outcomes[1::2])]
