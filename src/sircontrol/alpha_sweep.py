"""Dependence of the optimal objective on the death rate alpha.

For each alpha the problem is solved twice, once per objective
convention, so the comparison that motivates the corrected functional is
a single artifact: the legacy form rewards a rising death rate (its
optimal value falls as alpha grows), the new form does not.

Every solve stands alone, so a row equals the direct solves at its
alpha.  One row per alpha is emitted in input order, and failed solves
are retained with their converged flag down rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import FUNCTIONAL_LEGACY, FUNCTIONAL_NEW, ModelParams, running_cost
from .objective import defective_terminal
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


def _solve_point(base: ModelParams, alpha: float, residual_tol: float) -> SweepRow:
    p_new = replace(base, alpha=alpha, functional=FUNCTIONAL_NEW)
    p_legacy = replace(base, alpha=alpha, functional=FUNCTIONAL_LEGACY)
    rep_new = solve_shooting(running_cost(p_new), p_new, residual_tol)
    rep_legacy = solve_shooting(running_cost(p_legacy), p_legacy, residual_tol)
    return SweepRow(
        alpha=alpha,
        objective_new=rep_new.objective,
        objective_legacy=rep_legacy.objective,
        defective_terminal_new=defective_terminal(rep_new.trajectory),
        converged_new=rep_new.converged,
        converged_legacy=rep_legacy.converged,
        residual_new=rep_new.residual_norm,
        residual_legacy=rep_legacy.residual_norm,
        newton_iters_new=rep_new.newton_iters,
        newton_iters_legacy=rep_legacy.newton_iters,
    )


def sweep_alpha(
    base: ModelParams,
    alphas,
    residual_tol: float = 1e-10,
) -> list[SweepRow]:
    """Solve both functionals at every alpha; one row per alpha, input order.

    residual_tol is solve_shooting's, which rejects it before any solve
    unless 0 < residual_tol < inf.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if any(a < 0.0 for a in alphas):
        raise ValueError("alphas must be >= 0")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    return [_solve_point(base, alpha, residual_tol) for alpha in alphas]
