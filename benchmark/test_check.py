"""Tests of the output checker: it passes the program's real outputs and
rejects each kind of corruption it is meant to catch.

    python3 -m pytest benchmark/test_check.py

Outputs come from running sircontrol on small cases (a 3-point sweep, a
2-interval x 3-level enumeration, one baseline solve), so the file takes
a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

import check
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sircontrol import cli, config, model, solvers  # noqa: E402


def _run(tmp: Path, command: str, values: dict) -> str:
    cfg = tmp / f"{command}.cfg"
    out = tmp / f"{command}.csv"
    cfg.write_text(workloads.config_text(values), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _set_cell(text: str, row: int, column: str, change) -> str:
    """Apply ``change`` to one cell of a CSV; ``row`` counts data rows."""
    lines = text.splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    k = first + 1 + row if row >= 0 else len(lines) + row
    cells = lines[k].split(",")
    index = lines[first].split(",").index(column)
    cells[index] = change(cells[index])
    lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scale(factor):
    return lambda cell: repr(float(cell) * factor)


def _shift(delta):
    return lambda cell: repr(float(cell) + delta)


def _set_field(text: str, quantity: str, change) -> str:
    lines = [f"{quantity},{change(line.split(',', 1)[1])}" if line.startswith(f"{quantity},") else line
             for line in text.splitlines()]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    values = dict(workloads.BASELINE)
    text = _run(tmp_path_factory.mktemp("solve"), "solve", values)
    params = config.parse_config(workloads.config_text(values)).params
    fbs = solvers.solve_forward_backward(model.running_cost(params), params)
    return values, text, fbs


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    values = workloads.BASELINE | {"alpha_min": 0.1, "alpha_max": 0.2, "alpha_points": 3}
    return values, _run(tmp_path_factory.mktemp("sweep"), "sweep", values)


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    values = workloads.BASELINE | {"oracle_intervals": 2, "oracle_levels": 3}
    return values, _run(tmp_path_factory.mktemp("oracle"), "oracle-compare", values)


def test_trajectory_passes(solved):
    values, text, fbs = solved
    assert check.check_trajectory(values, text, fbs.objective, fbs.converged) == []


@pytest.mark.parametrize("column, row, change, expected", [
    ("u1", 700, _shift(1e-3), "clamp law"),
    ("u2", 0, _scale(0.5), "clamp law"),
    ("psi2", -1, _shift(1e-6), "terminal costate"),
    ("psi1", 0, _scale(1.0 + 1e-4), "re-integrated terminal costate"),
    ("S", 900, _shift(1e-6), "S+I+R+D"),
    ("z", -1, _scale(1.0 + 1e-6), "re-integrated"),
])
def test_trajectory_rejects_corruption(solved, column, row, change, expected):
    values, text, fbs = solved
    bad = _set_cell(text, row, column, change)
    problems = check.check_trajectory(values, bad, fbs.objective, fbs.converged)
    assert any(expected in p for p in problems), problems


def test_trajectory_rejects_disagreeing_forward_backward(solved):
    values, text, fbs = solved
    problems = check.check_trajectory(values, text, fbs.objective * (1.0 + 1e-4), True)
    assert any("forward-backward objective" in p for p in problems), problems


def test_sweep_passes(swept):
    values, text = swept
    assert check.check_sweep(values, text) == []


@pytest.mark.parametrize("column, row, change, expected", [
    ("objective_legacy", 2, lambda cell: "1e9", "strictly decrease"),
    ("objective_new", 1, lambda cell: "0.0", "decreases in alpha"),
    ("objective_new", 2, lambda cell: "1e9", "policy"),
    ("defective_terminal_new", 1, _scale(10.0), "c3 * D(T)"),
    ("converged_legacy", 1, lambda cell: "false", "converged flags"),
])
def test_sweep_rejects_corruption(swept, column, row, change, expected):
    values, text = swept
    problems = check.check_sweep(values, _set_cell(text, row, column, change))
    assert any(expected in p for p in problems), problems


def test_oracle_passes(compared):
    values, text = compared
    assert check.check_oracle(values, text) == []


@pytest.mark.parametrize("quantity, change, expected", [
    ("oracle_best_objective", _scale(1.0 + 1e-6), "re-integrates"),
    ("oracle_best_objective", _scale(0.5), "above the oracle best"),
    ("oracle_u1_interval_0", _shift(0.01), "not on the grid"),
    ("solver_objective", _scale(1.2), "above the oracle best"),
])
def test_oracle_rejects_corruption(compared, quantity, change, expected):
    values, text = compared
    problems = check.check_oracle(values, _set_field(text, quantity, change))
    assert any(expected in p for p in problems), problems
