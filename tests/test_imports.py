"""Every module reads every name it imports, no package module imports
another's private names, and no package module keeps state across calls."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/sircontrol", "demos", "tests") for path in (ROOT / folder).rglob("*.py"))
PACKAGE = [path for path in MODULES if path.is_relative_to(ROOT / "src/sircontrol")]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; star imports bind none and
    __future__ imports are directives, not names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((alias.asname or alias.name, alias.lineno) for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name.split(".")[0], alias.lineno) for alias in node.names)
    return names


def private_imports(tree: ast.Module) -> list[str]:
    """Each underscore name an import takes from another module, with its
    line; star imports name nothing and dunder names are not private."""
    return [f"{alias.name} (line {alias.lineno})" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, and the strings in its __all__."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return read


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in read]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never reads: {', '.join(unused)}"


def test_an_unread_import_is_found():
    tree = ast.parse("import os\nfrom numpy import array, zeros as z\n__all__ = ['array']\n")
    assert set(imported_names(tree)) - read_names(tree) == {"os", "z"}


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_package_module_imports_a_private_name(path):
    # A helper shared across modules is public there; tests may reach in.
    private = private_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not private, f"{path.relative_to(ROOT)} imports private names: {', '.join(private)}"


def test_a_private_import_is_found():
    tree = ast.parse("from .integrate import _rk4_stages, interval_boundaries\n"
                     "from .model import *\nfrom . import __version__\n")
    assert private_imports(tree) == ["_rk4_stages (line 1)"]


def call_history_state(tree: ast.Module) -> list[str]:
    """Each cache decorator (any whose name holds "cache", as functools'
    three do) and each global statement, with its line: state that makes
    a call's result or cost depend on the calls before it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"global {', '.join(node.names)} (line {node.lineno})")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if "cache" in name:
                    found.append(f"{name} on {node.name} (line {decorator.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_package_module_keeps_state_across_calls(path):
    # Every solve stands alone, so a report never depends on call history.
    state = call_history_state(ast.parse(path.read_text(), filename=str(path)))
    assert not state, f"{path.relative_to(ROOT)} keeps state across calls: {', '.join(state)}"


def test_a_cache_or_a_global_is_found():
    tree = ast.parse("import functools\nfrom functools import cache\n"
                     "@functools.cache\ndef a(): ...\n@cache\ndef b(): ...\n"
                     "class C:\n    @functools.cached_property\n    def c(self): ...\n"
                     "def d():\n    global n, m\n    @functools.wraps(a)\n    def e(): ...\n"
                     "@memo_cache(maxsize=1)\ndef f(): ...\n")
    assert call_history_state(tree) == ["cache on a (line 3)", "cache on b (line 5)", "memo_cache on f (line 14)",
                                        "cached_property on c (line 8)", "global n, m (line 11)"]
