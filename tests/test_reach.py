"""Every definition in the package is named by the package or a demo: code
that no command, demo or other module reaches is dead weight."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/sircontrol").rglob("*.py"))
USERS = PACKAGE + sorted((ROOT / "demos").rglob("*.py"))

# Named by nothing in the package or the demos: the benchmark wraps it to
# count shooting's probes until its counts come from the solve reports
# (ROADMAP item 1), which deletes it.
UNREACHED = {"shooting_residual"}


def definitions(tree: ast.Module) -> set[str]:
    """Module-level functions and classes, and the methods of those classes
    that are not dunders."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined.update(m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not (m.name.startswith("__") and m.name.endswith("__")))
    return defined


def named(tree: ast.Module) -> set[str]:
    """Every name the module uses as a bare name or an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unreached(package: list[ast.Module], users: list[ast.Module]) -> set[str]:
    used = set().union(*map(named, users))
    return set().union(*map(definitions, package)) - used


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_is_named_by_the_package_or_a_demo():
    assert unreached([parse(p) for p in PACKAGE], [parse(p) for p in USERS]) == UNREACHED


def test_an_unnamed_definition_is_found():
    module = ast.parse("class A:\n    def used(self): ...\n    def spare(self): ...\n    def __repr__(self): ...\n"
                       "def helper(): ...\ndef main():\n    return A().used()\n")
    demo = ast.parse("import m\nm.main()\n")
    assert unreached([module], [module, demo]) == {"spare", "helper"}
