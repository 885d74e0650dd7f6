"""Dead-symbol guard: every definition in ``src/qsnapshot`` has a caller there.

A module-level function or class, or a method of a class that ``__init__``
does not export, must be used as a ``Name`` or an ``Attribute`` somewhere in
the package, or be exported by ``__init__``. Dunders are exempt, and so are
the methods of exported classes, which are public API. Every attribute a
class stores on ``self`` (``self.X = ...`` or ``object.__setattr__(self,
"X", ...)``) must be read somewhere in the package; the public attributes of
exported classes are exempt. An export, in turn,
must have a caller in the package outside ``__init__`` or in the benchmark
(``perfbench/*.py``), or be one of the ``ENTRY_POINTS`` below. Code that only
tests use belongs in the tests. Only ``core`` reads the Philox generator
behind ``Rng`` (``._gen``); every other module draws through ``Rng``. No call
in the package passes a literal equal to the default it would get anyway. Only
``core.json_bytes`` writes JSON: nothing else calls or imports ``json.dump`` or
``json.dumps``. Only ``circuit._mottonen_thetas`` reads ``SKIP_TOL``: it alone
turns near-zero Mottonen angles into the exact zeros every preparation skips.
"""

import ast
from collections import Counter
from pathlib import Path

import qsnapshot

PACKAGE = Path(qsnapshot.__file__).parent
BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"

# Exports that nothing in the package or the benchmark calls, kept on purpose.
ENTRY_POINTS = {
    "train_gradient",  # acceptance gates 4 and 10 call the engines by name
    "train_qeswap",
    "ancilla_expectation",  # acceptance gate 1: the exact SWAP-test <Z>
    "hilbert_schmidt_overlap",  # the reference the DensityOracle tests compare against
}


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _benchmark_trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(BENCHMARK.glob("*.py"))}


def _exported(init: ast.Module) -> set:
    return {alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used(trees) -> set:
    used = set()
    for tree in trees:
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
    used = _used(trees.values())
    return [f"{module[:-3]}.{qualified}"
            for module, tree in trees.items()
            for qualified, name in _definitions(tree, exported)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in used and name not in exported]


def _stores(cls: ast.ClassDef):
    """Each attribute name ``cls`` stores on ``self``."""
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
              and len(node.args) > 1 and ast.unparse(node.args[0]) == "self"
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def dead_attributes(trees: dict) -> list:
    """``module.Class.attribute`` for each attribute stored on ``self`` that
    nothing in the package reads."""
    exported = _exported(trees["__init__.py"])
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    return sorted({f"{module[:-3]}.{cls.name}.{name}"
                   for module, tree in trees.items() for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for name in _stores(cls)
                   if name not in read
                   and not (cls.name in exported and not name.startswith("_"))})


def uncalled_exports(trees: dict, benchmark: dict) -> list:
    """Exports with no use outside ``__init__`` that are not entry points."""
    callers = [tree for module, tree in trees.items() if module != "__init__.py"]
    used = _used(callers + list(benchmark.values()))
    return sorted(_exported(trees["__init__.py"]) - used - ENTRY_POINTS)


def generator_readers(trees: dict) -> list:
    """Modules other than ``core`` that read ``._gen``."""
    return sorted(module for module, tree in trees.items() if module != "core.py"
                  and any(isinstance(node, ast.Attribute) and node.attr == "_gen"
                          for node in ast.walk(tree)))


def json_writers(trees: dict) -> list:
    """``module:line`` of each call or import of ``json.dump`` or ``json.dumps``
    outside ``core.json_bytes``."""
    found = []
    for module, tree in trees.items():
        owner = [f for f in tree.body if module == "core.py"
                 and getattr(f, "name", None) == "json_bytes"]
        allowed = {id(node) for f in owner for node in ast.walk(f)}
        for node in ast.walk(tree):
            calls = (isinstance(node, ast.Call)
                     and ast.unparse(node.func) in ("json.dump", "json.dumps"))
            imports = (isinstance(node, ast.ImportFrom) and node.module == "json"
                       and any(alias.name in ("dump", "dumps") for alias in node.names))
            if (calls or imports) and id(node) not in allowed:
                found.append(f"{module}:{node.lineno}")
    return found


def skip_tol_readers(trees: dict) -> list:
    """``module:line`` of each load or import of ``SKIP_TOL`` outside
    ``circuit._mottonen_thetas``."""
    found = []
    for module, tree in trees.items():
        owner = [f for f in tree.body if module == "circuit.py"
                 and getattr(f, "name", None) == "_mottonen_thetas"]
        allowed = {id(node) for f in owner for node in ast.walk(f)}
        for node in ast.walk(tree):
            loads = (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                     and "SKIP_TOL" in (getattr(node, "id", None), getattr(node, "attr", None)))
            imports = (isinstance(node, ast.ImportFrom)
                       and any(alias.name == "SKIP_TOL" for alias in node.names))
            if (loads or imports) and id(node) not in allowed:
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def _literal(node):
    """(type, value) of a literal expression, None for any other node."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return type(value), value


def _defaults(trees: dict) -> dict:
    """name -> (positional parameters past ``self``/``cls``, {parameter:
    literal default}) of each function or method defined exactly once."""
    counts, found = Counter(), {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            counts[node.name] += 1
            found[node.name] = positional, {arg: _literal(d) for arg, d in pairs}
    return {name: spec for name, spec in found.items() if counts[name] == 1}


def restated_defaults(trees: dict) -> list:
    """``module:line name(parameter=literal)`` for each call in the package
    that passes a literal equal to that parameter's default."""
    defaults, found = _defaults(trees), []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in defaults:
                continue
            positional, default = defaults[name]
            args = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):  # later positions are unknown
                    break
                args.append(arg)
            passed = list(zip(positional, args)) + [(k.arg, k.value) for k in node.keywords]
            found += [f"{module}:{node.lineno} {name}({arg}={ast.unparse(value)})"
                      for arg, value in passed
                      if _literal(value) is not None and _literal(value) == default.get(arg)]
    return found


def test_every_definition_has_a_caller_in_src():
    assert dead_symbols(_trees()) == []


def test_every_stored_attribute_is_read_in_src():
    assert dead_attributes(_trees()) == []


def test_every_export_has_a_caller_or_is_an_entry_point():
    assert uncalled_exports(_trees(), _benchmark_trees()) == []


def test_only_core_reads_the_generator():
    assert generator_readers(_trees()) == []


def test_only_json_bytes_writes_json():
    assert json_writers(_trees()) == []


def test_only_mottonen_thetas_reads_skip_tol():
    assert skip_tol_readers(_trees()) == []


def test_no_call_restates_a_default():
    assert restated_defaults(_trees()) == []


def test_guard_sees_planted_restated_defaults():
    planted = ast.parse("def _scale(x, factor=2.0, *, offset=None):\n    return x * factor\n"
                        "class _Planted:\n    def _planted_step(self, k=1):\n        return k\n"
                        "_scale(1.0, 2.0)\n_scale(1.0, factor=2.0, offset=None)\n"
                        "_scale(1.0, 2)\n_scale(2.0)\n_scale(*[1.0], 2.0)\n"
                        "_Planted()._planted_step(1)\n_Planted()._planted_step(k=2)\n")
    trees = {**_trees(), "planted.py": planted}
    assert restated_defaults(trees) == [
        "planted.py:6 _scale(factor=2.0)", "planted.py:7 _scale(factor=2.0)",
        "planted.py:7 _scale(offset=None)", "planted.py:11 _planted_step(k=1)"]


def test_guard_sees_planted_dead_definitions():
    planted = ast.parse("def _orphan():\n    return 1\n\n"
                        "class _Hidden:\n    def unused(self):\n        return 2\n")
    trees = {"__init__.py": _trees()["__init__.py"], "planted.py": planted}
    assert dead_symbols(trees) == ["planted._orphan", "planted._Hidden",
                                   "planted._Hidden.unused"]


def test_guard_sees_planted_dead_attributes():
    planted = ast.parse("class _Box:\n    def __init__(self):\n"
                        "        self.used, self.unused = 1, 2\n"
                        "        object.__setattr__(self, '_hidden', 3)\n"
                        "    def get(self):\n        return self.used\n\n"
                        "class Exported:\n    def __init__(self):\n"
                        "        self.public, self._private = 1, 2\n")
    trees = {"__init__.py": ast.parse("from .planted import Exported\n"), "planted.py": planted}
    assert dead_attributes(trees) == ["planted.Exported._private", "planted._Box._hidden",
                                      "planted._Box.unused"]


def test_guard_sees_planted_uncalled_export():
    trees = _trees()
    trees["__init__.py"] = ast.parse(ast.unparse(trees["__init__.py"])
                                     + "\nfrom .core import _planted_export\n")
    assert uncalled_exports(trees, _benchmark_trees()) == ["_planted_export"]
    # a benchmark caller is enough
    benchmark = {**_benchmark_trees(), "planted.py": ast.parse("qsnapshot._planted_export()")}
    assert uncalled_exports(trees, benchmark) == []


def test_guard_sees_planted_json_writers():
    planted = ast.parse("import json\nfrom json import dumps\n\n"
                        "def emit(payload, fh):\n    json.dump(payload, fh)\n"
                        "    return json.dumps(payload) + json.loads('1')\n")
    trees = {**_trees(), "planted.py": planted}
    assert json_writers(trees) == ["planted.py:2", "planted.py:5", "planted.py:6"]


def test_guard_sees_planted_skip_tol_readers():
    planted = ast.parse("from .circuit import SKIP_TOL\nfrom . import circuit\n\n"
                        "def keep(theta):\n    return abs(theta) > circuit.SKIP_TOL\n\n"
                        "def _mottonen_thetas(theta):\n    return theta > SKIP_TOL\n")
    trees = {**_trees(), "planted.py": planted}
    assert skip_tol_readers(trees) == ["planted.py:1", "planted.py:5", "planted.py:8"]


def test_guard_sees_planted_generator_reader():
    trees = {**_trees(), "planted.py": ast.parse("def draw(rng):\n    return rng._gen.random()\n")}
    assert generator_readers(trees) == ["planted.py"]
