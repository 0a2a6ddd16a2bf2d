"""Problem constants and pointwise mathematics of the controlled SIR model.

The model tracks four node compartments: Susceptible, Infected, Recovered
and Defective (nodes destroyed by the virus, dD/dt = alpha * I).  Two
box-constrained controls act on it: u1, a vaccination rate applied to
susceptibles, and u2, a treatment rate applied to infected nodes:

    dS/dt = -beta*S*I - u1*S
    dI/dt =  beta*S*I - u2*I - alpha*I
    dR/dt =  u1*S + u2*I
    dD/dt =  alpha*I

The running cost is the quadratic integrand

    a_i * I(t) + w1 * u1(t)**2 + w2 * u2(t)**2

whose weights cover both objective conventions in use:

  * "new"    -- minimize control effort plus the defected-node count,
                integrand c1*u1^2 + c2*u2^2 + c3*alpha*I, i.e.
                (a_i, w1, w2) = (c3*alpha, c1, c2);
  * "legacy" -- the widespread infected-load form c1*I + c3*u1^2 + c2*u2^2,
                i.e. (a_i, w1, w2) = (c1, c3, c2).

The costate (adjoint) pair (psi1, psi2) is dual to (S, I); R and D never
feed back into the dynamics, so they carry no costates.  The pointwise
maximizer of the Hamiltonian over the control box is the clamped law

    u1* = clamp(-psi1*S / (2*w1), 0, u1_max)
    u2* = clamp(-psi2*I / (2*w2), 0, u2_max)

This module is the only place where these equations are written.  Every
integrator, the enumeration lanes, the forward-backward update and the
diagnostics call the kernels below, so the cross-checks integrate exactly
the same system.  The state equations split by what feeds back:
dynamics_rhs gives (dS, dI), which drive everything else; removed_rhs
gives (dR, dD), and control_effort and cost_rate the running cost, which
the passes integrate as quadratures along their RK4 stage points.
Then come adjoint_rhs, hamiltonian, and the clamp law as optimal_controls
on floats or optimal_controls_lanes on arrays.  The kernels take flat
arguments and return plain tuples: the RK4 loops call them several times
per step on Python floats, where building value objects would cost more
than the arithmetic, and the same code runs unchanged on numpy lanes or
whole trajectory arrays.  One more kernel,
coupled_linearization, differentiates the coupled state-costate system
under the clamp law for shooting's exact Jacobian; it runs on numpy
lanes only and returns one 4x4 matrix per lane, lanes last.
Everything here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = [
    "FUNCTIONAL_NEW", "FUNCTIONAL_LEGACY", "ModelParams", "BASELINE", "RunningCost", "running_cost",
    "dynamics_rhs", "removed_rhs", "control_effort", "cost_rate", "adjoint_rhs", "hamiltonian",
    "optimal_controls", "optimal_controls_lanes",
]

FUNCTIONAL_NEW = "new"
FUNCTIONAL_LEGACY = "legacy"
FUNCTIONALS = (FUNCTIONAL_NEW, FUNCTIONAL_LEGACY)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# Shared validation table: (field, predicate, reason).  Used both by
# ModelParams construction and by the config parser, which needs to report
# every violation rather than the first one.
PARAM_CHECKS: list[tuple[str, Callable[["ModelParams"], bool], str]] = [
    ("beta", lambda p: _finite(p.beta) and p.beta >= 0.0, "must be a finite number >= 0"),
    ("alpha", lambda p: _finite(p.alpha) and p.alpha >= 0.0, "must be a finite number >= 0"),
    ("c1", lambda p: _finite(p.c1) and p.c1 > 0.0, "must be positive"),
    ("c2", lambda p: _finite(p.c2) and p.c2 > 0.0, "must be positive"),
    ("c3", lambda p: _finite(p.c3) and p.c3 >= 0.0, "must be a finite number >= 0"),
    ("u1_max", lambda p: _finite(p.u1_max) and p.u1_max >= 0.0, "must be a finite number >= 0"),
    ("u2_max", lambda p: _finite(p.u2_max) and p.u2_max >= 0.0, "must be a finite number >= 0"),
    ("horizon", lambda p: _finite(p.horizon) and p.horizon > 0.0, "must be positive"),
    ("s0", lambda p: _finite(p.s0) and p.s0 >= 0.0, "must be a finite number >= 0"),
    ("i0", lambda p: _finite(p.i0) and p.i0 >= 0.0, "must be a finite number >= 0"),
    ("r0", lambda p: _finite(p.r0) and p.r0 >= 0.0, "must be a finite number >= 0"),
    ("n_steps", lambda p: isinstance(p.n_steps, int) and p.n_steps >= 2, "must be an integer >= 2"),
    ("functional", lambda p: p.functional in FUNCTIONALS, "must be 'new' or 'legacy'"),
    # running_cost puts c3 on u1^2 under the legacy functional; a negative
    # c3 fails the c3 rule above already.
    ("c3", lambda p: p.functional != FUNCTIONAL_LEGACY or p.c3 != 0.0,
     "must be positive under the legacy functional"),
]


@dataclass(frozen=True)
class ModelParams:
    """All scalar constants of one problem instance.

    beta        transmission intensity per (node * time)
    alpha       disease-induced death rate per time
    c1, c2, c3  cost weights (c1, c2 strictly positive; c3 too under "legacy")
    u1_max      vaccination-rate upper bound
    u2_max      treatment-rate upper bound
    horizon     final time T of the control window [0, T]
    s0, i0, r0  initial node counts
    n_steps     RK4 grid intervals
    functional  objective convention, "new" or "legacy"
    """

    beta: float
    alpha: float
    c1: float
    c2: float
    c3: float
    u1_max: float
    u2_max: float
    horizon: float
    s0: float
    i0: float
    r0: float
    n_steps: int = 2000
    functional: str = FUNCTIONAL_NEW

    def __post_init__(self):
        bad = [(f, reason) for f, ok, reason in PARAM_CHECKS if not ok(self)]
        if bad:
            msg = "; ".join(f"{f} {reason}" for f, reason in bad)
            raise ValueError(f"invalid model parameters: {msg}")
        # Every pass then runs on Python floats: numpy scalars would make
        # each RK4 stage about twice as slow, for the same values.
        for f in fields(self):
            if f.type == "float":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))


# The reference scenario every study, self-check, demo and frozen constant
# is built on: a 100-node network with 5 infected, a mildly contagious
# virus, both controls capped at 0.9 over a 10-unit window.
BASELINE = ModelParams(beta=0.01, alpha=0.1, c1=1.0, c2=1.0, c3=10.0, u1_max=0.9, u2_max=0.9,
                       horizon=10.0, s0=95.0, i0=5.0, r0=0.0)


@dataclass(frozen=True)
class RunningCost:
    """Weights of the running-cost integrand a_i*I + w1*u1^2 + w2*u2^2.

    w1 and w2 must be strictly positive: the interior optimal-control
    formulas divide by them.
    """

    a_i: float
    w1: float
    w2: float

    def __post_init__(self):
        if not (_finite(self.a_i) and self.a_i >= 0.0):
            raise ValueError("a_i must be a finite number >= 0")
        if not (_finite(self.w1) and self.w1 > 0.0):
            raise ValueError("w1 must be positive")
        if not (_finite(self.w2) and self.w2 > 0.0):
            raise ValueError("w2 must be positive")


def running_cost(p: ModelParams) -> RunningCost:
    """Map a parameter set to its running-cost weights.

    "new":    (a_i, w1, w2) = (c3*alpha, c1, c2)
    "legacy": (a_i, w1, w2) = (c1, c3, c2)

    The legacy convention puts c3 on u1^2; ModelParams holds it to c3 > 0.
    """
    if p.functional == FUNCTIONAL_NEW:
        return RunningCost(a_i=p.c3 * p.alpha, w1=p.c1, w2=p.c2)
    return RunningCost(a_i=p.c1, w1=p.c3, w2=p.c2)


def dynamics_rhs(s, i, u1, u2, beta, alpha):
    """Time derivatives (dS, dI) under controls (u1, u2): the part that feeds back."""
    infection = beta * s * i
    return -infection - u1 * s, infection - u2 * i - alpha * i


def removed_rhs(s, i, u1, u2, alpha):
    """Time derivatives (dR, dD) under controls (u1, u2).

    Vaccination u1*S and treatment u2*I flow into R, deaths alpha*I into
    D; with dynamics_rhs every flow appears once with either sign, so
    dS + dI + dR + dD is zero in exact arithmetic: the system is closed.
    """
    return u1 * s + u2 * i, alpha * i


def control_effort(u1, u2, w1, w2):
    """The running cost's control part w1*u1^2 + w2*u2^2, dz_control/dt."""
    return w1 * u1 * u1 + w2 * u2 * u2


def cost_rate(effort, i, a_i):
    """The running cost effort + a_i*I, dz/dt, from a control_effort value."""
    return effort + a_i * i


def adjoint_rhs(s, i, psi1, psi2, u1, u2, beta, alpha, a_i):
    """Time derivatives (dpsi1, dpsi2) of the costates.

    dpsi1/dt = psi1*beta*I + psi1*u1 - psi2*beta*I
    dpsi2/dt = a_i + psi1*beta*S - psi2*beta*S + psi2*u2 + psi2*alpha

    The a_i term is the only inhomogeneity; with a_i = 0 and zero terminal
    data the costates vanish identically.  Works on floats and on numpy
    lanes alike.
    """
    beta_i = beta * i
    beta_s = beta * s
    return (
        psi1 * beta_i + psi1 * u1 - psi2 * beta_i,
        a_i + psi1 * beta_s - psi2 * beta_s + psi2 * u2 + psi2 * alpha,
    )


def hamiltonian(s, i, psi1, psi2, u1, u2, beta, alpha, a_i, w1, w2):
    """Control Hamiltonian: -(running cost) + psi . (state dynamics).

    Constant along extremals of this autonomous problem, which makes its
    spread along a converged trajectory a cheap global diagnostic.  Works
    on floats and on whole trajectory arrays alike.
    """
    ds, di = dynamics_rhs(s, i, u1, u2, beta, alpha)
    return -cost_rate(control_effort(u1, u2, w1, w2), i, a_i) + psi1 * ds + psi2 * di


def optimal_controls(s, i, psi1, psi2, w1, w2, u1_max, u2_max):
    """Pointwise maximizer (u1, u2) of the Hamiltonian over the control box.

    The control-dependent part splits into two convex single-variable
    quadratics, so each maximizer is the stationary point clamped to its
    admissible interval.  Scalars only.  The comparisons are inclusive, so
    a boundary tie resolves to the bound and an exactly-zero stationary
    point comes back as +0.0, never -0.0.
    """
    u1 = -psi1 * s / (2.0 * w1)
    if u1 <= 0.0:
        u1 = 0.0
    elif u1 >= u1_max:
        u1 = u1_max
    u2 = -psi2 * i / (2.0 * w2)
    if u2 <= 0.0:
        u2 = 0.0
    elif u2 >= u2_max:
        u2 = u2_max
    return u1, u2


def optimal_controls_lanes(s, i, psi1, psi2, w1, w2, u1_max, u2_max):
    """optimal_controls on numpy arrays, bit for bit.

    The same stationary points, clamped with the same inclusive
    comparisons: np.where keeps the scalar law's +0.0 and bound ties,
    where np.clip or np.maximum(0.0, -0.0) would return -0.0.
    """
    u1 = -psi1 * s / (2.0 * w1)
    u2 = -psi2 * i / (2.0 * w2)
    return (
        np.where(u1 <= 0.0, 0.0, np.where(u1 >= u1_max, u1_max, u1)),
        np.where(u2 <= 0.0, 0.0, np.where(u2 >= u2_max, u2_max, u2)),
    )


def coupled_linearization(s, i, psi1, psi2, u1, u2, beta, alpha, w1, w2, u1_max, u2_max):
    """Derivative of (dS, dI, dpsi1, dpsi2) in (S, I, psi1, psi2), clamp law substituted.

    (u1, u2) must be the clamp law's controls at the point.  Each control
    moves with its stationary point, u1 with -psi1*S/(2*w1) and u2 with
    -psi2*I/(2*w2), strictly inside its box (0 < u < u_max), and is held
    where it clamps, a bound tie included, as the law's inclusive
    comparisons resolve it.  Works on 1-d numpy lanes: returns an array of
    shape (4, 4, lanes), rows the derivatives, columns the variables.
    """
    g1 = (-0.5 / w1) * ((u1 > 0.0) & (u1 < u1_max))
    g2 = (-0.5 / w2) * ((u2 > 0.0) & (u2 < u2_max))
    du1_ds, du1_dp1 = g1 * psi1, g1 * s
    du2_di, du2_dp2 = g2 * psi2, g2 * i
    beta_s, beta_i, beta_dp = beta * s, beta * i, beta * (psi1 - psi2)
    zero = np.zeros_like(beta_s)
    return np.array([
        [-beta_i - u1 - s * du1_ds, -beta_s, -s * du1_dp1, zero],
        [beta_i, beta_s - u2 - alpha - i * du2_di, zero, -i * du2_dp2],
        [psi1 * du1_ds, beta_dp, beta_i + u1 + psi1 * du1_dp1, -beta_i],
        [beta_dp, psi2 * du2_di, beta_s, -beta_s + u2 + alpha + psi2 * du2_dp2],
    ])
