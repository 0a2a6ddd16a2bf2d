"""Public surface: every exported name resolves, and the README's quickstart runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import sircontrol


def test_every_exported_name_resolves():
    modules = [sircontrol] + [
        importlib.import_module(f"sircontrol.{info.name}")
        for info in pkgutil.iter_modules(sircontrol.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
    namespace = {}
    exec("from sircontrol import *", namespace)
    assert set(sircontrol.__all__) <= set(namespace)


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[1] == "True"  # report.converged
