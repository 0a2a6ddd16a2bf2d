"""Public surface: the exported names, picklable errors, a light import, and the README's quickstart runs."""

import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import sircontrol

# The package's public names; widening or narrowing the API fails here.
PUBLIC_NAMES = {
    "BASELINE", "BruteForceResult", "CheckResult", "ConfigError", "FUNCTIONAL_LEGACY", "FUNCTIONAL_NEW",
    "ModelParams", "NonFiniteError", "ResolvedConfig", "RunningCost", "SirControlError",
    "SolveReport", "SweepRow", "TooLargeError", "Trajectory", "__version__", "adjoint_rhs",
    "brute_force_best", "control_effort", "control_gradient", "control_levels", "cost_rate",
    "dynamics_rhs", "expand_piecewise_schedule", "hamiltonian", "integrate_adjoint_backward",
    "integrate_coupled", "integrate_state_forward", "interval_boundaries", "optimal_controls",
    "optimal_controls_lanes", "parse_config", "removed_rhs", "run_self_check", "running_cost",
    "shooting_residual", "solve_forward_backward", "solve_shooting", "sweep_alpha",
}
REEXPORTED = ("alpha_sweep", "brute_force", "config", "errors", "integrate", "model", "selfcheck", "solvers")


def test_every_exported_name_resolves():
    modules = [sircontrol] + [
        importlib.import_module(f"sircontrol.{info.name}")
        for info in pkgutil.iter_modules(sircontrol.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_exported_names_are_the_modules_shares():
    names = sircontrol.__all__
    assert len(names) == len(set(names))
    shares = [importlib.import_module(f"sircontrol.{module}").__all__ for module in REEXPORTED]
    assert set(names) == set().union(*shares) | {"__version__"}
    assert set(names) == PUBLIC_NAMES
    namespace = {}
    exec("from sircontrol import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[1] == "True"  # report.converged


def test_every_exported_error_survives_pickling():
    # The alpha study's worker processes hand their errors back pickled.
    errors = [
        sircontrol.SirControlError("plain"),
        sircontrol.NonFiniteError(0.5),
        sircontrol.NonFiniteError(0.5, "shooting start diverged"),
        sircontrol.TooLargeError("4096 schedules exceed the guard"),
        sircontrol.ConfigError([("c3", "bad"), ("alpha", "must be a finite number >= 0")]),
    ]
    exported = {getattr(sircontrol, name) for name in sircontrol.__all__}
    assert {type(exc) for exc in errors} == {t for t in exported if isinstance(t, type) and issubclass(t, Exception)}
    for exc in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert getattr(back, "time", None) == getattr(exc, "time", None)
        assert getattr(back, "problems", None) == getattr(exc, "problems", None)
    assert str(errors[2]) == "non-finite value encountered at t = 0.5 (shooting start diverged)"
    assert str(errors[4]) == "invalid configuration: c3: bad; alpha: must be a finite number >= 0"


def test_importing_the_package_loads_no_process_machinery():
    # The alpha study imports its worker pool when it runs, so import time stays low.
    code = "import sys, sircontrol; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    src = str(Path(sircontrol.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"
