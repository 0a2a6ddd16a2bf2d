"""Public surface: the exported names, and the README's quickstart runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import sircontrol

# The package's public names; widening or narrowing the API fails here.
PUBLIC_NAMES = {
    "BruteForceResult", "CheckResult", "ConfigError", "FUNCTIONAL_LEGACY", "FUNCTIONAL_NEW",
    "ModelParams", "NonFiniteError", "ResolvedConfig", "RunningCost", "SirControlError",
    "SolveReport", "SweepRow", "TooLargeError", "Trajectory", "__version__", "adjoint_rhs",
    "brute_force_best", "control_gradient", "control_levels", "expand_piecewise_schedule",
    "hamiltonian", "integrate_adjoint_backward", "integrate_coupled", "integrate_state_forward",
    "interval_boundaries", "optimal_controls", "optimal_controls_lanes", "parse_config",
    "run_self_check", "running_cost", "shooting_residual", "solve_forward_backward",
    "solve_shooting", "state_rhs", "sweep_alpha",
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
