"""Dead-symbol guard: every definition in ``src/qsnapshot`` has a caller there.

A module-level function or class, or a method of a class that ``__init__``
does not export, must be used as a ``Name`` or an ``Attribute`` somewhere in
the package, or be exported by ``__init__``. Dunders are exempt, and so are
the methods of exported classes, which are public API. Code that only tests
use belongs in the tests.
"""

import ast
from pathlib import Path

import qsnapshot

PACKAGE = Path(qsnapshot.__file__).parent


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(init: ast.Module) -> set:
    return {alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used(trees: dict) -> set:
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _definitions(tree: ast.Module, exported: set):
    """(qualified name, name) of each module-level definition, and of each
    method of a class that is not exported."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef) and node.name not in exported:
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name


def dead_symbols(trees: dict) -> list:
    exported = _exported(trees["__init__.py"])
    used = _used(trees)
    return [f"{module[:-3]}.{qualified}"
            for module, tree in trees.items()
            for qualified, name in _definitions(tree, exported)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in used and name not in exported]


def test_every_definition_has_a_caller_in_src():
    assert dead_symbols(_trees()) == []


def test_guard_sees_planted_dead_definitions():
    planted = ast.parse("def _orphan():\n    return 1\n\n"
                        "class _Hidden:\n    def unused(self):\n        return 2\n")
    trees = {"__init__.py": _trees()["__init__.py"], "planted.py": planted}
    assert dead_symbols(trees) == ["planted._orphan", "planted._Hidden",
                                   "planted._Hidden.unused"]
