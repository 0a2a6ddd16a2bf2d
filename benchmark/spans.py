"""Spans around sircontrol's public functions, recorded from outside.

``Tracer.install`` replaces each function named in ``PATCH_POINTS`` with a
wrapper, in the module where its caller looks it up (the shooting solver
finds ``integrate_coupled`` as ``sircontrol.solvers.integrate_coupled``).
No file of the program changes.  Spans stay in memory until ``write``;
``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _text_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _coupled_steps(args, result):
    return {"steps": len(result.t) - 1}


def _lane_steps(args, result):
    return {"lane_steps": result.n_schedules * args[1].n_steps}


# (module the caller looks the name up in, attribute, span name, span attributes)
PATCH_POINTS = (
    ("sircontrol.cli", "main", "cli.main", None),
    ("sircontrol.cli", "parse_config", "config.parse_config", None),
    ("sircontrol.cli", "sweep_alpha", "alpha_sweep.sweep_alpha", None),
    ("sircontrol.cli", "solve_shooting", "solvers.solve_shooting", None),
    ("sircontrol.alpha_sweep", "solve_shooting", "solvers.solve_shooting", None),
    ("sircontrol.cli", "brute_force_best", "brute_force.brute_force_best", _lane_steps),
    ("sircontrol.cli", "trajectory_csv", "reports.trajectory_csv", _text_bytes),
    ("sircontrol.cli", "sweep_csv", "reports.sweep_csv", _text_bytes),
    ("sircontrol.cli", "oracle_compare_csv", "reports.oracle_compare_csv", _text_bytes),
    ("sircontrol.cli", "solve_summary", "reports.solve_summary", _text_bytes),
    ("sircontrol.solvers", "solve_forward_backward", "solvers.solve_forward_backward", None),
    ("sircontrol.solvers", "shooting_residual", "solvers.shooting_residual", None),
    ("sircontrol.solvers", "integrate_coupled", "integrate.integrate_coupled", _coupled_steps),
    ("sircontrol.solvers", "integrate_state_forward", "integrate.integrate_state_forward", None),
    ("sircontrol.solvers", "integrate_adjoint_backward", "integrate.integrate_adjoint_backward", None),
)

RENDERERS = ("reports.trajectory_csv", "reports.sweep_csv", "reports.oracle_compare_csv",
             "reports.solve_summary")


class Tracer:
    """Span recorder; one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, attrs in PATCH_POINTS:
            module = sys.modules.get(module_name)
            if not hasattr(module, attr):
                sys.stderr.write(f"trace: {module_name}.{attr} not found, span {name} not recorded\n")
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, attrs))
            self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None,
                    "start": time.perf_counter(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return traced

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(header | {"spans": self.spans}, fh)
            fh.write("\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer figures of one traced round, as {name: (value, unit)}."""
    children: dict[int, list[dict]] = {}
    named: dict[str, list[dict]] = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def calls(name):
        return len(named.get(name, ()))

    def busy(name):
        return sum(_duration(s) for s in named.get(name, ()))

    def self_time(name):
        return sum(_duration(s) - sum(_duration(c) for c in children.get(s["id"], ()))
                   for s in named.get(name, ()))

    def total(name, attr):
        return sum(s.get(attr, 0) for s in named.get(name, ()))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    # A Newton iteration starts with its two Jacobian probes, so each run of
    # consecutive shooting_residual calls under one solve is one iteration.
    newton_steps = 0
    for solve in named.get("solvers.solve_shooting", ()):
        previous = None
        for child in children.get(solve["id"], ()):
            if child["name"] == "solvers.shooting_residual" and previous != child["name"]:
                newton_steps += 1
            previous = child["name"]
    # Each forward-backward iteration makes one forward state pass, and the
    # solve ends with one more under the accepted schedule.
    fbs_sweeps = sum(
        max(0, sum(c["name"] == "integrate.integrate_state_forward"
                   for c in children.get(s["id"], ())) - 1)
        for s in named.get("solvers.solve_forward_backward", ())
    )

    coupled = "integrate.integrate_coupled"
    lanes = total("brute_force.brute_force_best", "lane_steps")
    return {
        "integrate.integrate_coupled.calls": (calls(coupled), "count"),
        "integrate.integrate_coupled.s": (busy(coupled), "s"),
        "integrate.coupled_us_per_step": (ratio(busy(coupled), total(coupled, "steps"), 1e6), "us"),
        "solvers.solve_shooting.calls": (calls("solvers.solve_shooting"), "count"),
        "solvers.solve_shooting.s": (busy("solvers.solve_shooting"), "s"),
        "solvers.newton_steps": (newton_steps, "count"),
        "solvers.jacobian_probes": (calls("solvers.shooting_residual"), "count"),
        "solvers.coupled_per_solve": (ratio(calls(coupled), calls("solvers.solve_shooting")), "count"),
        "solvers.solve_forward_backward.s": (busy("solvers.solve_forward_backward"), "s"),
        "solvers.fbs_sweeps": (fbs_sweeps, "count"),
        "integrate.integrate_state_forward.calls": (calls("integrate.integrate_state_forward"), "count"),
        "integrate.integrate_state_forward.s": (busy("integrate.integrate_state_forward"), "s"),
        "integrate.integrate_adjoint_backward.calls": (calls("integrate.integrate_adjoint_backward"), "count"),
        "integrate.integrate_adjoint_backward.s": (busy("integrate.integrate_adjoint_backward"), "s"),
        "brute_force.brute_force_best.s": (busy("brute_force.brute_force_best"), "s"),
        "brute_force.lane_steps": (lanes, "count"),
        "brute_force.ns_per_lane_step": (ratio(busy("brute_force.brute_force_best"), lanes, 1e9), "ns"),
        "alpha_sweep.sweep_alpha.self_s": (self_time("alpha_sweep.sweep_alpha"), "s"),
        "reports.render.s": (sum(busy(name) for name in RENDERERS), "s"),
        "reports.bytes": (sum(total(name, "bytes") for name in RENDERERS), "B"),
        "config.parse_config.s": (busy("config.parse_config"), "s"),
        "cli.main.self_s": (self_time("cli.main"), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
