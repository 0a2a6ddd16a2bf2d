"""Benchmark of sircontrol: one workload per run, measured end to end or traced.

    python3 benchmark/run.py --workload {sweep,atlas,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Set-up (importing sircontrol, writing the seeded
configuration files, parsing them) is repeated ``SETUPS`` times and timed
each time.  Then whole rounds of the workload's operations run, one at a
time, until ``--seconds`` of measured time have passed; every run makes
at least one round.  Every operation's output is then checked by
``check.py``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs the
rounds untraced, then one more round with spans recorded around the
program's public functions (``spans.py``), reports the per-layer metrics
of that round and writes its spans to ``benchmark/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

SETUPS = 5
OUT = Path(__file__).resolve().parent / "out"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program(src: Path) -> SimpleNamespace:
    """Import sircontrol afresh from ``src``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "sircontrol" or n.startswith("sircontrol.")]:
        del sys.modules[name]
    package = importlib.import_module("sircontrol")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sircontrol was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"sircontrol.{name}")
                              for name in ("cli", "config", "model", "solvers")})


def set_up(src: Path, workload: str, seed: int, work: Path):
    """Import the program, write the inputs and parse them; returns (seconds, mods, inputs, configs)."""
    start = time.perf_counter()
    mods = _import_program(src)
    work.mkdir(parents=True, exist_ok=True)
    inputs = []
    for name, values in workloads.make_inputs(workload, seed):
        path = work / f"{name}.cfg"
        path.write_text(workloads.config_text(values), encoding="utf-8")
        inputs.append((name, values, path))
    configs = [mods.config.parse_config(path.read_text(encoding="utf-8")) for _, _, path in inputs]
    return time.perf_counter() - start, mods, inputs, configs


def run_rounds(workload, mods, inputs, configs, work: Path, seconds: float, min_rounds: int):
    """Whole rounds, at least ``min_rounds``, until ``seconds`` of measured time; [(wall, ops)]."""
    rounds = []
    measured = 0.0
    while len(rounds) < min_rounds or measured < seconds:
        start = time.perf_counter()
        ops = workloads.run_round(workload, mods, inputs, configs, work / f"round{len(rounds)}")
        rounds.append((time.perf_counter() - start, ops))
        measured += rounds[-1][0]
    return rounds


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "sircontrol" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no sircontrol sources under {src}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(src))

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setups = []
    for _ in range(SETUPS):
        seconds, mods, inputs, configs = set_up(src, args.workload, args.seed, work / "inputs")
        setups.append(seconds)

    rounds = run_rounds(args.workload, mods, inputs, configs, work, args.seconds,
                        workloads.MIN_ROUNDS[args.workload])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(w for w, _ in rounds)
    ops = [op for _, round_ops in rounds for op in round_ops]

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_rounds(args.workload, mods, inputs, configs, work / "traced", 0.0, 1)
        finally:
            tracer.remove()
        traced_wall = traced[0][0]
        ops += traced[0][1]
        tracer.write(OUT / f"trace-{args.workload}.json", {
            "workload": args.workload, "seed": args.seed,
            "untraced_round_s": wall, "traced_round_s": traced_wall,
        })
        layers = spans.layer_metrics(tracer.spans, traced_wall, wall)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_s": {"value": statistics.median(op.seconds for op in ops), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    problems = [p for op in ops if op.ok for p in op.check()]
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
