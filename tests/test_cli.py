"""Command-line surface: commands, exit codes, CSV contracts, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sircontrol
from sircontrol import running_cost
from sircontrol.cli import main
from sircontrol.reports import TRAJECTORY_COLUMNS, fmt, header_lines, trajectory_csv

BASELINE_CFG = """
beta = 0.01
alpha = 0.1
c1 = 1
c2 = 1
c3 = 10
u1_max = 0.9
u2_max = 0.9
horizon = 10
s0 = 95
i0 = 5
r0 = 0
"""

FAST_CFG = BASELINE_CFG + "n_steps = 400\nalpha_points = 3\nalpha_max = 0.3\noracle_levels = 2\n"


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(FAST_CFG)
    return path


def read_data_lines(path):
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    return header, data


class TestSolveCommand:
    def test_writes_trajectory_csv_with_config_header(self, cfg, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header, data = read_data_lines(out)
        assert any("beta = 0.01" in line for line in header)
        assert any("n_steps = 400" in line for line in header)
        assert data[0] == "t,S,I,R,D,psi1,psi2,u1,u2,z"
        assert len(data) == 1 + 400 + 1
        first = data[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 95.0
        summary = capsys.readouterr().out
        assert "objective:" in summary
        assert "converged" in summary
        assert (tmp_path / "traj.csv.summary.txt").read_text() == summary

    def test_summary_cost_lines_read_the_trajectory(self, cfg, tmp_path, capsys):
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "traj.csv")]) == 0
        lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()
                     if not line.startswith("#"))
        # Solves are deterministic: the same solve again gives the CLI's trajectory.
        config = sircontrol.parse_config(cfg.read_text())
        traj = sircontrol.solve_shooting(running_cost(config.params), config.params).trajectory
        assert lines["  control effort"].strip() == repr(float(traj.z_control[-1]))
        assert lines["  state load"].strip() == repr(float(traj.z[-1] - traj.z_control[-1]))
        assert lines["defective nodes"].strip() == repr(float(traj.d[-1]))

    # On 400 steps the seed runs on the problem's grid, on 2000 on 500
    # steps; Newton runs on the problem's grid either way.
    @pytest.mark.parametrize("n_steps, newton, sweeps", [(400, "2", "15"), (2000, "2", "15")])
    def test_summary_reports_the_solve_work(self, tmp_path, capsys, n_steps, newton, sweeps):
        path = tmp_path / "scenario.cfg"
        path.write_text(BASELINE_CFG + f"n_steps = {n_steps}\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "traj.csv")]) == 0
        lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()
                     if not line.startswith("#"))
        assert (lines["newton iterations"].strip(), lines["seed sweeps"].strip()) == (newton, sweeps)
        assert "coupled passes" not in lines

    def test_alpha_zero_solve_is_exactly_trivial(self, tmp_path, capsys):
        path = tmp_path / "zero.cfg"
        path.write_text(BASELINE_CFG.replace("alpha = 0.1", "alpha = 0") + "n_steps = 400\n")
        out = tmp_path / "traj.csv"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        _, data = read_data_lines(out)
        rows = [line.split(",") for line in data[1:]]
        assert all(row[7] == "0.0" and row[8] == "0.0" for row in rows)
        assert "objective:          0.0" in capsys.readouterr().out


def per_value_trajectory_csv(report, config) -> str:
    """The trajectory CSV rendered with fmt on every value: the reference
    that trajectory_csv's column-wise repr must equal byte for byte."""
    lines = header_lines(config, "solve")
    lines.append(",".join(TRAJECTORY_COLUMNS))
    columns = [getattr(report.trajectory, name.lower()).tolist() for name in TRAJECTORY_COLUMNS]
    lines.extend(",".join(map(fmt, row)) for row in zip(*columns))
    return "\n".join(lines) + "\n"


class TestTrajectoryCsv:
    def test_the_baseline_solve_renders_as_fmt_per_value(self):
        config = sircontrol.parse_config(BASELINE_CFG)
        report = sircontrol.solve_shooting(running_cost(config.params), config.params)
        assert trajectory_csv(report, config) == per_value_trajectory_csv(report, config)

    def test_special_floats_render_as_fmt_per_value(self):
        config = sircontrol.parse_config(FAST_CFG)
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1])
        columns = {name.lower(): np.roll(values, k) for k, name in enumerate(TRAJECTORY_COLUMNS)}
        traj = sircontrol.Trajectory(z_control=values, **columns)
        report = sircontrol.SolveReport(traj, objective=0.0, residual_norm=0.0, newton_iters=0,
                                        converged=True, solver="shooting", sweeps=0)
        csv = trajectory_csv(report, config)
        assert csv == per_value_trajectory_csv(report, config)
        rows = csv.splitlines()[-len(values):]
        assert [row.split(",")[0] for row in rows] == ["nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "0.1"]


class TestSweepCommand:
    # Byte-identical reruns are acceptance criterion 10's check.
    def test_sweep_csv_columns_grid_and_flags(self, cfg, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        header, data = read_data_lines(out)
        assert data[0] == (
            "alpha,objective_new,objective_legacy,defective_terminal_new,"
            "converged_new,converged_legacy,newton_iters_new,newton_iters_legacy"
        )
        assert len(data) == 1 + 3
        alphas = [float(line.split(",")[0]) for line in data[1:]]
        assert alphas == [float(a) for a in np.linspace(0.05, 0.3, 3)]
        flags = {line.split(",")[4] for line in data[1:]}
        assert flags == {"true"}


    def test_a_diverging_point_is_kept_as_a_failed_row(self, tmp_path, capsys):
        # alpha = 40 diverges on 100 steps under both functionals; the
        # other three points still solve, and their rows are written.
        path = tmp_path / "diverging.cfg"
        path.write_text(BASELINE_CFG + "n_steps = 100\nalpha_min = 0.05\nalpha_max = 40\nalpha_points = 4\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        _, data = read_data_lines(out)
        rows = [dict(zip(data[0].split(","), line.split(","))) for line in data[1:]]
        assert [float(row["alpha"]) for row in rows] == [float(a) for a in np.linspace(0.05, 40, 4)]
        assert rows[0]["converged_new"] == "true"
        assert rows[3] == {
            "alpha": "40.0", "objective_new": "nan", "objective_legacy": "nan",
            "defective_terminal_new": "nan", "converged_new": "false", "converged_legacy": "false",
            "newton_iters_new": "0", "newton_iters_legacy": "0",
        }


class TestOracleCompareCommand:
    def test_side_by_side_output(self, cfg, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 0
        _, data = read_data_lines(out)
        table = dict(line.split(",", 1) for line in data[1:])
        assert data[0] == "quantity,value"
        assert table["solver_converged"] == "true"
        solver = float(table["solver_objective"])
        oracle = float(table["oracle_best_objective"])
        assert solver <= oracle + 1e-9 * abs(oracle)
        assert int(table["oracle_schedules_evaluated"]) == 2 ** 6


class TestCheckCommand:
    def test_check_passes_on_defaults(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_check_writes_report_when_asked(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["check", "--out", str(out)]) == 0
        assert out.read_text().count("PASS") == 3

    # The driven 20-step run blows up at t = 1 at both betas.  The
    # Hamiltonian check's 4000-step solve diverges in its seed sweep's
    # first state pass, the uncontrolled run on the 500-step seed grid:
    # at t = 0.06 at beta 20 and at t = 0.08 at beta 5.
    @pytest.mark.parametrize("beta, diverged_at", [("20", "0.06"), ("5", "0.08")])
    def test_diverging_check_fails_and_the_others_still_run(self, tmp_path, capsys, beta, diverged_at):
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text(BASELINE_CFG.replace("beta = 0.01", f"beta = {beta}") + "n_steps = 20\n")
        assert main(["check", "--config", str(cfg)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("PASS rk4-order: ")
        assert lines[1] == "FAIL conservation: non-finite value encountered at t = 1"
        assert lines[2] == (
            "FAIL hamiltonian-constancy: "
            f"non-finite value encountered at t = {diverged_at} (shooting start diverged)"
        )

    def test_an_unconverged_check_solve_fails_its_check(self, capsys, monkeypatch):
        monkeypatch.setattr(sircontrol.solvers, "_MAX_NEWTON_ITERS", 0)
        assert main(["check"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS rk4-order", "PASS conservation", "FAIL hamiltonian-constancy",
        ]
        assert lines[2] == "FAIL hamiltonian-constancy: shooting solve did not converge"

    def test_an_empty_population_passes_every_check(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(BASELINE_CFG.replace("s0 = 95", "s0 = 0").replace("i0 = 5", "i0 = 0"))
        assert main(["check", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS rk4-order", "PASS conservation", "PASS hamiltonian-constancy",
        ]
        assert lines[1] == "PASS conservation: max absolute drift 0.000e+00 (tolerance 1e-9)"


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_CFG.replace("c1 = 1", "c1 = 0"))
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(bad), "--out", str(out)]) == 2
        assert "c1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "oracle_size",
        ["n_steps = 4\noracle_intervals = 5\n", "oracle_intervals = 5\noracle_levels = 4\n"],
        ids=["intervals_over_steps", "over_guard"],
    )
    def test_oracle_size_error_exits_2_before_solving(self, tmp_path, capsys, monkeypatch, oracle_size):
        import sircontrol.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the configuration was rejected")

        monkeypatch.setattr(sircontrol.cli, "solve_shooting", no_solve)
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASELINE_CFG + oracle_size)
        out = tmp_path / "x.csv"
        assert main(["oracle-compare", "--config", str(bad), "--out", str(out)]) == 2
        assert "oracle_" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, bad_value, problem",
        [
            ("sweep", "alpha_max = inf\n", "alpha_max: must be a finite number"),
            ("sweep", "alpha_min = nan\nalpha_points = 1\n", "alpha_min: must be a finite number >= 0"),
            ("solve", "residual_tol = inf\n", "residual_tol: must be positive"),
            ("solve", "fd_epsilon = inf\n", "fd_epsilon: unknown key"),
            ("solve", "max_newton_iters = 1\n", "max_newton_iters: unknown key"),
        ],
        ids=[
            "alpha_max_inf", "alpha_min_nan_single_point", "residual_tol_inf", "fd_epsilon_inf",
            "max_newton_iters",
        ],
    )
    def test_non_finite_value_exits_2_before_solving(
        self, tmp_path, capsys, monkeypatch, command, bad_value, problem
    ):
        import sircontrol.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the configuration was rejected")

        monkeypatch.setattr(sircontrol.cli, "solve_shooting", no_solve)
        monkeypatch.setattr(sircontrol.cli, "sweep_alpha", no_solve)
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASELINE_CFG + "n_steps = 400\n" + bad_value)
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()

    # The legacy functional weights u1^2 by c3, and sweep solves it at
    # every alpha whatever the configured functional.
    @pytest.mark.parametrize(
        "command, functional, problem",
        [
            ("solve", "legacy", "must be positive under the legacy functional"),
            ("sweep", "legacy", "must be positive under the legacy functional"),
            ("oracle-compare", "legacy", "must be positive under the legacy functional"),
            ("check", "legacy", "must be positive under the legacy functional"),
            ("sweep", "new", "must be positive: sweep also solves the legacy functional"),
        ],
        ids=["solve", "sweep", "oracle-compare", "check", "sweep-new"],
    )
    def test_zero_c3_under_the_legacy_functional_exits_2_before_solving(
        self, tmp_path, capsys, monkeypatch, command, functional, problem
    ):
        import sircontrol.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the configuration was rejected")

        for name in ("solve_shooting", "sweep_alpha", "run_self_check"):
            monkeypatch.setattr(sircontrol.cli, name, no_solve)
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_CFG.replace("c3 = 10", "c3 = 0") + f"functional = {functional}\n")
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: c3: {problem}\n"
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not_utf8", "no_permission"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, monkeypatch, kind):
        cfg = tmp_path / "scenario.cfg"
        if kind == "directory":
            cfg.mkdir()
            reason = "Is a directory"
        elif kind == "not_utf8":
            cfg.write_bytes(FAST_CFG.encode() + b"# \xff\n")
            reason = f"not UTF-8 text (byte {len(FAST_CFG) + 2}: invalid start byte)"
        else:
            # Simulated: a superuser reads files whatever their mode.
            def refuse(self, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(self))

            cfg.write_text(FAST_CFG)
            monkeypatch.setattr(Path, "read_text", refuse)
            reason = "Permission denied"
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {cfg}: {reason}\n"
        assert not out.exists()

    # (command, --out, the path rejected, reason); solve also writes
    # --out's summary beside it.
    @pytest.mark.parametrize(
        "command, target, rejected, reason",
        [
            pytest.param(command, target, target, reason, id=f"{kind}-{command}")
            for kind, target, reason in [
                ("missing_directory", "missing/x.csv", "no such directory"),
                ("directory", ".", "is a directory"),
            ]
            for command in ["solve", "sweep", "oracle-compare", "check"]
        ]
        + [pytest.param("solve", "x.csv", "x.csv.summary.txt", "is a directory",
                        id="summary_directory-solve")],
    )
    def test_unwritable_out_exits_2_before_solving(
        self, cfg, tmp_path, capsys, monkeypatch, command, target, rejected, reason
    ):
        import sircontrol.cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the output path was rejected")

        for name in ("solve_shooting", "sweep_alpha", "run_self_check"):
            monkeypatch.setattr(sircontrol.cli, name, no_solve)
        out = tmp_path / target
        if reason == "is a directory":
            (tmp_path / rejected).mkdir(exist_ok=True)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {tmp_path / rejected}: {reason}\n"
        assert not out.is_file()

    def test_non_convergence_exits_1(self, tmp_path, capsys, monkeypatch):
        import sircontrol.solvers

        monkeypatch.setattr(sircontrol.solvers, "_MAX_NEWTON_ITERS", 1)
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(FAST_CFG)
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "NOT CONVERGED" in capsys.readouterr().out
        assert out.exists()  # diagnostics still written

    def test_every_start_diverging_names_the_earliest_divergence(self, tmp_path, capsys):
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text(BASELINE_CFG.replace("beta = 0.01", "beta = 5") + "n_steps = 20\n")
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: non-finite value encountered at t = 1 (shooting start diverged)\n"
        )


def run_python(*args):
    """``python ARGS`` with the package under test importable, installed or not."""
    src = str(Path(sircontrol.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestConsoleEntryPoint:
    def test_module_invocation_round_trip(self, cfg, tmp_path):
        out = tmp_path / "traj.csv"
        proc = run_python("-m", "sircontrol", "solve", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "objective:" in proc.stdout
        assert out.exists()

    def test_usage_error_for_unknown_command(self):
        proc = run_python("-m", "sircontrol", "frobnicate")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr


class TestDemos:
    # functional_defect_sweep.py is left out: it runs a full 10-alpha sweep.
    @pytest.mark.parametrize("demo", ["single_solve.py", "verification_tour.py"])
    def test_demo_runs(self, demo):
        script = Path(__file__).resolve().parents[1] / "demos" / demo
        proc = run_python(str(script))
        assert proc.returncode == 0, proc.stderr

