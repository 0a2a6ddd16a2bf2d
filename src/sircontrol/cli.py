"""Command-line front end.

    sircontrol solve          --config cfg --out traj.csv
    sircontrol sweep          --config cfg --out sweep.csv
    sircontrol oracle-compare --config cfg --out compare.csv
    sircontrol check          [--config cfg] [--out report.txt]

Exit codes: 0 success, 1 solver non-convergence, 2 configuration error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .alpha_sweep import sweep_alpha
from .brute_force import brute_force_best
from .config import ResolvedConfig, parse_config
from .errors import ConfigError, SirControlError
from .model import BASELINE, running_cost
from .reports import (
    oracle_compare_csv,
    solve_summary,
    sweep_csv,
    trajectory_csv,
    write_text,
)
from .selfcheck import run_self_check
from .solvers import solve_shooting

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sircontrol",
        description="Optimal vaccination/treatment schedules for an SIR virus model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem, write the trajectory CSV")
    sweep = sub.add_parser("sweep", help="alpha study of both functionals, write the sweep CSV")
    compare = sub.add_parser("oracle-compare", help="solver vs brute-force enumeration, side by side")
    check = sub.add_parser("check", help="run the built-in invariant suite")
    solve.set_defaults(handler=_cmd_solve)
    sweep.set_defaults(handler=_cmd_sweep)
    compare.set_defaults(handler=_cmd_oracle_compare)
    check.set_defaults(handler=_cmd_check)

    for cmd in (solve, sweep, compare):
        cmd.add_argument("--config", required=True, help="configuration file (key = value lines)")
        cmd.add_argument("--out", required=True, help="output file path")
    check.add_argument("--config", help="configuration file (defaults to the built-in scenario)")
    check.add_argument("--out", help="also write the report to this path")
    return parser


def _load_config(path: str) -> ResolvedConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([(path, f"not UTF-8 text (byte {exc.start}: {exc.reason})")]) from exc
    return parse_config(text)


def _summary_path(out: str) -> str:
    return f"{out}.summary.txt"


def _check_out(path: str) -> None:
    """Reject an output path that cannot be written, before any solve."""
    if Path(path).is_dir():
        raise ConfigError([(path, "is a directory")])
    if not Path(path).parent.is_dir():
        raise ConfigError([(path, "no such directory")])


def _cmd_solve(args) -> int:
    config = _load_config(args.config)
    cost = running_cost(config.params)
    report = solve_shooting(cost, config.params, config.residual_tol)
    summary = solve_summary(report, config)
    write_text(args.out, trajectory_csv(report, config))
    write_text(_summary_path(args.out), summary)
    sys.stdout.write(summary)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if config.params.c3 == 0.0:
        raise ConfigError([("c3", "must be positive: sweep also solves the legacy functional")])
    alphas = np.linspace(config.alpha_min, config.alpha_max, config.alpha_points)
    rows = sweep_alpha(config.params, alphas, config.residual_tol)
    write_text(args.out, sweep_csv(rows, config))
    n_failed = sum((not r.converged_new) + (not r.converged_legacy) for r in rows)
    sys.stdout.write(f"swept {len(rows)} alpha points, {n_failed} failed solves -> {args.out}\n")
    return EXIT_OK if n_failed == 0 else EXIT_NO_CONVERGENCE


def _cmd_oracle_compare(args) -> int:
    config = _load_config(args.config)
    cost = running_cost(config.params)
    report = solve_shooting(cost, config.params, config.residual_tol)
    # The solver's controls only bound the search; the oracle's answer is its own.
    oracle = brute_force_best(cost, config.params, config.oracle_intervals, config.oracle_levels,
                              hint=(report.trajectory.u1, report.trajectory.u2))
    write_text(args.out, oracle_compare_csv(report, oracle, config))
    sys.stdout.write(
        f"solver {report.objective!r} vs oracle best {oracle.objective!r} "
        f"({oracle.n_schedules} schedules) -> {args.out}\n"
    )
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_check(args) -> int:
    results = run_self_check(BASELINE if args.config is None else _load_config(args.config).params)
    lines = [
        f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}" for res in results
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        write_text(args.out, text)
    return EXIT_OK if all(res.passed for res in results) else EXIT_INTERNAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
            if args.command == "solve":
                _check_out(_summary_path(args.out))
        return args.handler(args)
    except ConfigError as exc:
        for field, reason in exc.problems:
            sys.stderr.write(f"config error: {field}: {reason}\n")
        return EXIT_CONFIG
    except OSError as exc:  # an unreadable --config, or an --out that cannot be written
        sys.stderr.write(f"config error: {exc.filename}: {exc.strerror}\n")
        return EXIT_CONFIG
    except SirControlError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL
