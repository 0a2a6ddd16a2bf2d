"""The benchmark's workloads: their seeded inputs and their operations.

Every input reaches the program as a configuration file written here; the
program sees nothing else.  An operation calls the program through its
public API and returns its wall time, whether it succeeded, and a deferred
check of its output (``check.py``), so that checking, which is slow and
imports scipy, runs outside the measured interval.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The values of demos/baseline.cfg, with every default the workloads rely
# on written out so that the checker never needs the program's defaults.
BASELINE = {
    "beta": 0.01, "alpha": 0.1, "c1": 1.0, "c2": 1.0, "c3": 10.0,
    "u1_max": 0.9, "u2_max": 0.9, "horizon": 10.0,
    "s0": 95.0, "i0": 5.0, "r0": 0.0,
    "n_steps": 2000, "functional": "new", "residual_tol": 1e-10,
}

SWEEP_GRID = {"alpha_min": 0.05, "alpha_max": 0.5, "alpha_points": 10}

# 5^(2*3) = 15,625 schedules per functional: enumeration is most of the run,
# and both functionals fit the run-time budget (4 x 4 takes ~15 s each).
ORACLE_SIZE = {"oracle_intervals": 3, "oracle_levels": 5}

# The atlas panel is criterion 04's: the baseline plus draws from its box
# (beta, alpha, c1, c2, c3 each scaled by U(0.8, 1.2)) with its seed.  Draw
# 2 is a scenario on which damped Newton from (0, 0) stalls (643 coupled
# integrations against 50-190 for the others).  Draw 1 stalls for 1650
# integrations and draw 4 costs 189; both are left out to keep a run within
# the time budget.
#
# The scenarios do not depend on --seed; only the order in which a round
# solves them does.  The cold-start cost is chaotic in the inputs: moving
# every factor by 1e-6 relative took draw 2 from 643 to 1046 coupled
# integrations and draw 4 from 189 to 134, so any seeded perturbation would
# make wall time follow the seed instead of the program.
ATLAS_DRAW_SEED = 20260808
ATLAS_DRAWS_KEPT = (0, 2, 3)
ATLAS_FACTOR_KEYS = ("beta", "alpha", "c1", "c2", "c3")


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                   for key, value in values.items())


def atlas_scenarios() -> list[tuple[str, dict]]:
    draws = np.random.default_rng(ATLAS_DRAW_SEED).uniform(0.8, 1.2, (max(ATLAS_DRAWS_KEPT) + 1, 5))
    scenarios = [("baseline", dict(BASELINE))]
    for k in ATLAS_DRAWS_KEPT:
        values = dict(BASELINE)
        for key, factor in zip(ATLAS_FACTOR_KEYS, draws[k]):
            values[key] = BASELINE[key] * float(factor)
        scenarios.append((f"draw{k}", values))
    return scenarios


def make_inputs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(name, configuration values) of every input of the workload, in run order."""
    if workload == "sweep":
        return [("baseline", BASELINE | SWEEP_GRID)]
    if workload == "oracle":
        inputs = [(functional, BASELINE | ORACLE_SIZE | {"functional": functional})
                  for functional in ("new", "legacy")]
    elif workload == "atlas":
        inputs = atlas_scenarios()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng(seed).permutation(len(inputs))
    return [inputs[k] for k in order]


WORKLOADS = ("sweep", "atlas", "oracle")

# An atlas operation lasts ~3 s, short enough for this machine's drifting
# speed to move the median of one round's four operations: over 10 seeds its
# quartile spread was 0.22 of the median.  Over two rounds, 6 seeds gave 0.14.
MIN_ROUNDS = {"sweep": 1, "atlas": 2, "oracle": 1}


@dataclass
class Operation:
    seconds: float
    ok: bool
    check: Callable[[], list[str]]


def _cli(mods, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return mods.cli.main(argv)


def run_round(workload: str, mods, inputs, configs, work: Path) -> list[Operation]:
    """One round: every operation of the workload once, in input order.

    ``inputs`` holds (name, values, config path) and ``configs`` the
    program's parse of each file, made during set-up.
    """
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for (name, values, cfg), config in zip(inputs, configs):
        out = work / f"{name}.csv"
        start = time.perf_counter()
        if workload == "sweep":
            code = _cli(mods, ["sweep", "--config", str(cfg), "--out", str(out)])
            fbs = None
        elif workload == "oracle":
            code = _cli(mods, ["oracle-compare", "--config", str(cfg), "--out", str(out)])
            fbs = None
        else:
            code = _cli(mods, ["solve", "--config", str(cfg), "--out", str(out)])
            params = config.params
            fbs = mods.solvers.solve_forward_backward(mods.model.running_cost(params), params)
        seconds = time.perf_counter() - start
        ops.append(Operation(seconds, code == 0, _checker(workload, values, out, fbs)))
    return ops


def _checker(workload: str, values: dict, out: Path, fbs) -> Callable[[], list[str]]:
    def run() -> list[str]:
        import check  # scipy loads here, after the measured rounds

        text = out.read_text(encoding="utf-8")
        if workload == "sweep":
            return check.check_sweep(values, text)
        if workload == "oracle":
            return check.check_oracle(values, text)
        return check.check_trajectory(values, text, fbs.objective, fbs.converged)
    return run
