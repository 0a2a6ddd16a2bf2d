"""Checks of sircontrol's outputs made apart from the program.

Nothing here imports sircontrol.  The model is written out again from its
equations; reference values come from scipy's ``solve_ivp`` (DOP853 at
tight tolerances), and the rest are properties that any correct output
has: conservation of nodes, the clamp law on every row, vanishing
terminal costates, the monotone alpha dependence of the two functionals,
and optimality against simple policies.

Each ``check_*`` function takes the key/value dictionary the benchmark
wrote into the configuration file and the text the program wrote, and
returns a list of problems; an empty list means the output passed.

Sign convention: the costates follow the program's documented clamp law
``u1 = clamp(-psi1*S/(2*w1), 0, u1_max)``, that is Pontryagin's maximum
principle with H = -L + psi . f, so

    psi1' = psi1*beta*I + psi1*u1 - psi2*beta*I
    psi2' = a_i + psi1*beta*S - psi2*beta*S + psi2*u2 + psi2*alpha
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

# Tolerances.  The program integrates with classical RK4 on a 2000-step
# grid; its global error on these problems is far below each figure.
CONSERVATION_REL = 1e-9
CLAMP_REL = 1e-12
REINTEGRATE_REL = 1e-8
# Integrating the costates forward amplifies the gap between the RK4 grid's
# shooting root and the exact one: re-integrated terminal costates reach
# ~6e-5 on correct outputs, while a 1e-6 relative error in psi1(0) moves
# them by ~2e-4, so errors from ~5e-6 up are rejected.
REINTEGRATED_COSTATE_ABS = 1e-3
FBS_AGREEMENT_REL = 1e-5
POLICY_SLACK_REL = 1e-9
ORACLE_OBJECTIVE_REL = 1e-8
LEVEL_GRID_REL = 1e-12

_IVP = dict(method="DOP853", rtol=1e-12, atol=1e-12)


def weights(values: dict) -> tuple[float, float, float]:
    """Running-cost weights (a_i, w1, w2) of ``a_i*I + w1*u1^2 + w2*u2^2``."""
    if values["functional"] == "new":
        return values["c3"] * values["alpha"], values["c1"], values["c2"]
    return values["c1"], values["c3"], values["c2"]


def _clamp_law(psi1, psi2, s, i, values):
    _, w1, w2 = weights(values)
    u1 = np.clip(-psi1 * s / (2.0 * w1), 0.0, values["u1_max"])
    u2 = np.clip(-psi2 * i / (2.0 * w2), 0.0, values["u2_max"])
    return u1, u2


def policy_objective(values: dict, u1_levels, u2_levels) -> float:
    """Objective of a schedule constant on each of len(u1_levels) even pieces.

    Piece j spans grid nodes floor(j*n/m) to floor((j+1)*n/m) of the
    n_steps grid; each piece is integrated on its own so the integrator
    never steps across a jump in the controls.
    """
    a_i, w1, w2 = weights(values)
    beta, alpha = values["beta"], values["alpha"]
    n, m = values["n_steps"], len(u1_levels)
    h = values["horizon"] / n
    y = [values["s0"], values["i0"], 0.0]
    for j in range(m):
        u1, u2 = float(u1_levels[j]), float(u2_levels[j])
        t0, t1 = (j * n // m) * h, ((j + 1) * n // m) * h

        def rhs(t, x, u1=u1, u2=u2):
            s, i, _ = x
            infection = beta * s * i
            return [-infection - u1 * s, infection - u2 * i - alpha * i,
                    w1 * u1 * u1 + w2 * u2 * u2 + a_i * i]

        sol = solve_ivp(rhs, (t0, t1), y, **_IVP)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
    return float(y[2])


def coupled_terminal(values: dict, state0, psi0) -> np.ndarray:
    """(S, I, R, D, psi1, psi2, z) at the horizon, clamp law applied throughout."""
    a_i, w1, w2 = weights(values)
    beta, alpha = values["beta"], values["alpha"]
    u1_max, u2_max = values["u1_max"], values["u2_max"]

    def rhs(t, x):
        s, i, _, _, p1, p2, _ = x
        u1 = min(max(-p1 * s / (2.0 * w1), 0.0), u1_max)
        u2 = min(max(-p2 * i / (2.0 * w2), 0.0), u2_max)
        infection = beta * s * i
        return [
            -infection - u1 * s,
            infection - u2 * i - alpha * i,
            u1 * s + u2 * i,
            alpha * i,
            p1 * beta * i + p1 * u1 - p2 * beta * i,
            a_i + p1 * beta * s - p2 * beta * s + p2 * u2 + p2 * alpha,
            w1 * u1 * u1 + w2 * u2 * u2 + a_i * i,
        ]

    sol = solve_ivp(rhs, (0.0, values["horizon"]), [*state0, *psi0, 0.0], **_IVP)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of a CSV whose header lines start with '#'."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_trajectory(values: dict, csv_text: str, fbs_objective: float,
                     fbs_converged: bool) -> list[str]:
    """Check a ``sircontrol solve`` trajectory CSV and its forward-backward cross-check."""
    columns, rows = _table(csv_text)
    expected = ["t", "S", "I", "R", "D", "psi1", "psi2", "u1", "u2", "z"]
    if columns != expected:
        return [f"trajectory columns {columns} != {expected}"]
    if len(rows) != values["n_steps"] + 1:
        return [f"{len(rows)} trajectory rows, expected {values['n_steps'] + 1}"]
    data = np.array(rows, dtype=float)
    t, s, i, r, d, psi1, psi2, u1, u2, z = data.T
    problems = []

    if not np.all(np.isfinite(data)):
        problems.append("non-finite value in the trajectory")
    if _rel(t[-1], values["horizon"]) > 1e-12 or t[0] != 0.0:
        problems.append(f"time grid spans [{t[0]}, {t[-1]}], expected [0, {values['horizon']}]")
    start = (values["s0"], values["i0"], values["r0"], 0.0)
    if tuple(data[0, 1:5]) != start:
        problems.append(f"initial state {tuple(data[0, 1:5])} != {start}")

    terminal = max(abs(psi1[-1]), abs(psi2[-1]))
    if not terminal <= values["residual_tol"]:
        problems.append(f"terminal costate {terminal:.3e} > residual_tol {values['residual_tol']:.1e}")

    total = values["s0"] + values["i0"] + values["r0"]
    drift = float(np.max(np.abs(s + i + r + d - total))) / total
    if not drift <= CONSERVATION_REL:
        problems.append(f"S+I+R+D drifts by {drift:.3e} relative > {CONSERVATION_REL:.0e}")

    law1, law2 = _clamp_law(psi1, psi2, s, i, values)
    scale = 1.0 + max(values["u1_max"], values["u2_max"])
    off = max(float(np.max(np.abs(u1 - law1))), float(np.max(np.abs(u2 - law2)))) / scale
    if not off <= CLAMP_REL:
        problems.append(f"controls differ from the clamp law by {off:.3e} > {CLAMP_REL:.0e}")

    end = coupled_terminal(values, data[0, 1:5], data[0, 5:7])
    drift = max(abs(end[4]), abs(end[5]))
    if not drift <= REINTEGRATED_COSTATE_ABS:
        problems.append(
            f"re-integrated terminal costate {drift:.3e} > {REINTEGRATED_COSTATE_ABS:.0e}"
        )
    gap = _rel(z[-1], end[6])
    if not gap <= REINTEGRATE_REL:
        problems.append(
            f"z(T) {z[-1]!r} vs re-integrated {end[6]!r}: {gap:.3e} relative > {REINTEGRATE_REL:.0e}"
        )

    if not fbs_converged:
        problems.append("forward-backward sweep did not converge")
    gap = _rel(fbs_objective, z[-1])
    if not gap <= FBS_AGREEMENT_REL:
        problems.append(
            f"forward-backward objective {fbs_objective!r} vs shooting {z[-1]!r}: "
            f"{gap:.3e} relative > {FBS_AGREEMENT_REL:.0e}"
        )
    return problems


def alpha_grid(values: dict) -> np.ndarray:
    if values["alpha_points"] == 1:
        return np.array([values["alpha_min"]])
    return np.linspace(values["alpha_min"], values["alpha_max"], values["alpha_points"])


def check_sweep(values: dict, csv_text: str) -> list[str]:
    """Check a ``sircontrol sweep`` CSV: convergence, the defect's shape, optimality bounds."""
    columns, rows = _table(csv_text)
    alphas = alpha_grid(values)
    if len(rows) != len(alphas):
        return [f"{len(rows)} sweep rows, expected {len(alphas)}"]
    col = {name: [row[k] for row in rows] for k, name in enumerate(columns)}
    needed = ("alpha", "objective_new", "objective_legacy", "defective_terminal_new",
              "converged_new", "converged_legacy")
    missing = [name for name in needed if name not in col]
    if missing:
        return [f"sweep columns missing: {missing}"]
    problems = []

    got = np.array(col["alpha"], dtype=float)
    if not np.allclose(got, alphas, rtol=1e-12, atol=0.0):
        problems.append(f"alpha column {got.tolist()} != grid {alphas.tolist()}")
    for functional in ("new", "legacy"):
        flags = col[f"converged_{functional}"]
        if any(flag != "true" for flag in flags):
            problems.append(f"{functional} functional: converged flags {flags}")

    obj_new = np.array(col["objective_new"], dtype=float)
    obj_legacy = np.array(col["objective_legacy"], dtype=float)
    if not np.all(np.diff(obj_legacy) < 0.0):
        problems.append(f"legacy objective does not strictly decrease in alpha: {obj_legacy.tolist()}")
    if not np.all(np.diff(obj_new) >= 0.0):
        problems.append(f"new objective decreases in alpha: {obj_new.tolist()}")

    defective = np.array(col["defective_terminal_new"], dtype=float)
    floor = values["c3"] * defective
    if not np.all(obj_new >= floor * (1.0 - 1e-12)):
        problems.append("objective_new < c3 * D(T) at some alpha")

    for k, alpha in enumerate(alphas):
        for functional, objective in (("new", obj_new[k]), ("legacy", obj_legacy[k])):
            point = dict(values, alpha=float(alpha), functional=functional)
            for label, level in (("uncontrolled", 0.0), ("full-control", 1.0)):
                u1 = [level * point["u1_max"]]
                u2 = [level * point["u2_max"]]
                bound = policy_objective(point, u1, u2)
                if not objective <= bound * (1.0 + POLICY_SLACK_REL):
                    problems.append(
                        f"alpha {alpha!r} {functional}: objective {objective!r} "
                        f"above the {label} policy's {bound!r}"
                    )
    return problems


def level_grid(u_max: float, n_levels: int) -> np.ndarray:
    if n_levels == 1:
        return np.zeros(1)
    return np.array([u_max * k / (n_levels - 1) for k in range(n_levels)])


def check_oracle(values: dict, csv_text: str) -> list[str]:
    """Check a ``sircontrol oracle-compare`` CSV against independent re-integration."""
    columns, rows = _table(csv_text)
    if columns != ["quantity", "value"]:
        return [f"oracle-compare columns {columns} != ['quantity', 'value']"]
    field = {row[0]: row[1] for row in rows}
    m, n_levels = values["oracle_intervals"], values["oracle_levels"]
    names = [f"oracle_u{c}_interval_{j}" for j in range(m) for c in (1, 2)]
    missing = [name for name in ("solver_objective", "solver_converged", "oracle_best_objective",
                                 "oracle_schedules_evaluated", *names) if name not in field]
    if missing:
        return [f"oracle-compare fields missing: {missing}"]
    problems = []

    solver = float(field["solver_objective"])
    best = float(field["oracle_best_objective"])
    if field["solver_converged"] != "true":
        problems.append("shooting solve did not converge")
    if not math.isfinite(best):
        problems.append(f"oracle best objective is {best!r}")
    if int(field["oracle_schedules_evaluated"]) != n_levels ** (2 * m):
        problems.append(
            f"{field['oracle_schedules_evaluated']} schedules evaluated, expected {n_levels ** (2 * m)}"
        )
    if not solver <= best + 1e-9 * abs(best):
        problems.append(f"solver objective {solver!r} above the oracle best {best!r}")

    u1 = [float(field[f"oracle_u1_interval_{j}"]) for j in range(m)]
    u2 = [float(field[f"oracle_u2_interval_{j}"]) for j in range(m)]
    for label, levels, grid in (("u1", u1, level_grid(values["u1_max"], n_levels)),
                                ("u2", u2, level_grid(values["u2_max"], n_levels))):
        for level in levels:
            if not np.any(np.abs(grid - level) <= LEVEL_GRID_REL * (1.0 + abs(level))):
                problems.append(f"{label} level {level!r} is not on the grid {grid.tolist()}")

    again = policy_objective(values, u1, u2)
    if not _rel(best, again) <= ORACLE_OBJECTIVE_REL:
        problems.append(
            f"best schedule re-integrates to {again!r}, reported {best!r} "
            f"({_rel(best, again):.3e} relative > {ORACLE_OBJECTIVE_REL:.0e})"
        )
    for label, level in (("all-zero", 0.0), ("all-max", 1.0)):
        bound = policy_objective(values, [level * values["u1_max"]] * m, [level * values["u2_max"]] * m)
        if not bound >= best * (1.0 - POLICY_SLACK_REL):
            problems.append(f"{label} schedule {bound!r} beats the reported best {best!r}")
    return problems
