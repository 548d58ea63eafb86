"""Every module of the package imports on its own, uses what it imports,
and defines no public name or dataclass field that only tests use.

The package roots re-export nothing, so an import cycle shows only when
the module on one side of it is imported first.  One subprocess imports
each module from an empty module cache in turn.  Because nothing is
re-exported either, a name a module imports but never reads is dead.

A public name of the package is read by the program when the package,
the demos or the benchmark harness read it outside its own definition.
Names are matched by their last component, so a method counts as read
when any attribute of that name is read.  A public field of a dataclass
must be read there too, and a field with a default must also be set
there, outside its own class body: otherwise every run keeps the default
and the field is a constant that looks like an option.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import cyberevo
from helpers import package_env

IMPORT_EACH = """
import importlib, sys, traceback
failures = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "cyberevo"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures.append(f"{name}:\\n{traceback.format_exc()}")
print("\\n".join(failures), file=sys.stderr)
sys.exit(1 if failures else 0)
"""


PACKAGE_DIR = Path(cyberevo.__file__).resolve().parent


def package_modules() -> list[str]:
    """Dotted names of every module and package."""
    names = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = ("cyberevo",) + path.relative_to(PACKAGE_DIR).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_every_module_imports_alone():
    modules = package_modules()
    assert "cyberevo.scenario.engine" in modules and "cyberevo" in modules
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH, *modules],
        env=package_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in `source` that no code reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_detected():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(os.sep, d)\n"
    assert unused_imports(source) == ["np (line 2)", "c (line 3)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        str(path.relative_to(PACKAGE_DIR)): unused
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


# Where the program reads names: the package, the demos and the benchmark
# harness, whose test files do not count.
READERS = ("src", "demos", "perfbench")
# The benchmark tracer binds names by strings such as
# "cyberevo.episodes:run_episode" or "cyberevo.traces:FitnessTrace.write_csv".
TRACED = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)$")


def public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) of every public top-level function,
    class and module constant, and every public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id, node


def name_reads(tree: ast.Module):
    """(name, line, called) of every name and attribute the module reads.

    ``called`` marks an attribute that is called, and each part of a tracer
    binding, which wraps what it names.
    """
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, id(node) in called
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            traced = TRACED.match(node.value)
            for part in traced.group(1).split(".") if traced else ():
                yield part, node.lineno, True


def reader_trees(root: Path) -> dict[Path, ast.Module]:
    """The parsed non-test files of ``root``'s reader directories."""
    return {
        path: ast.parse(path.read_text())
        for folder in READERS
        for path in sorted((root / folder).rglob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    }


def module_name(path: Path, package: Path) -> str:
    return ".".join(path.relative_to(package).with_suffix("").parts)


def unread_public_names(root: Path) -> list[str]:
    """``module:name`` of every public name under ``root/src/cyberevo`` that
    nothing under ``root``'s reader directories reads outside its definition."""
    package = root / "src" / "cyberevo"
    trees = reader_trees(root)
    reads: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, called in name_reads(tree):
            reads.setdefault(name, []).append((path, line, called))
    unread = []
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        module = module_name(path, package)
        for qualified, name, node in public_definitions(tree):
            # A method is only read where it is called: a field or a local
            # of the same name does not count.
            method = qualified != name
            outside = [
                (where, line) for where, line, called in reads.get(name, ())
                if (called or not method)
                and (where != path or not node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unread.append(f"{module}:{qualified}")
    return unread


def test_names_read_only_by_tests_are_detected(tmp_path):
    planted = {
        "src/cyberevo/shapes.py": (
            "LIMIT = 3\n"
            "def used():\n    return LIMIT\n"
            "def traced():\n    return 1\n"
            "def tested():\n    return tested\n"
            "class Box:\n"
            "    def open(self):\n        return Box\n"
            "    def close(self):\n        return 0\n"
            "    def size(self):\n        return 0\n"
            "    def _hidden(self):\n        return 0\n"
        ),
        # `size` is read only as a field of another object, never called.
        "demos/demo.py": (
            "from cyberevo.shapes import Box, used\n"
            "print(used(), Box().close(), LIMITS.size)\n"
        ),
        "perfbench/tracer.py": 'LAYERS = ("cyberevo.shapes:traced",)\n',
        "perfbench/test_bench.py": "from cyberevo.shapes import Box\nBox().open()\n",
        "tests/test_shapes.py": "from cyberevo.shapes import tested\nassert tested()\n",
    }
    for name, source in planted.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    assert unread_public_names(tmp_path) == ["shapes:tested", "shapes:Box.open", "shapes:Box.size"]


def test_every_public_name_has_a_reader_outside_tests():
    root = Path(__file__).resolve().parent.parent
    assert (root / "src" / "cyberevo").is_dir()
    assert unread_public_names(root) == []


def is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def has_default(value: ast.expr | None) -> bool:
    """Whether a field's right-hand side gives it a default."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def dataclass_fields(tree: ast.Module):
    """(class node, field names in order, [(field, defaulted)] of the public
    ones) of every top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list)):
            items = [
                item for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            public = [
                (item.target.id, has_default(item.value))
                for item in items if not item.target.id.startswith("_")
            ]
            yield node, [item.target.id for item in items], public


def field_sets(tree: ast.Module, positions: dict[str, list[str]]):
    """(name, line, callee) of every field setting in the module: a keyword
    argument, an attribute store, a positional argument of a call to a
    dataclass named in ``positions`` and a string holding a name, as in
    ``setattr(settings, attr, value)`` over a tuple of names.  ``callee``
    names the called function of an argument, and is None otherwise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield keyword.arg, node.lineno, callee
            for name, arg in zip(positions.get(callee, ()), node.args):
                if not isinstance(arg, ast.Starred):
                    yield name, node.lineno, callee
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno, None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, None


def unused_dataclass_fields(root: Path) -> list[str]:
    """``module:Class.field (unread)`` for every public dataclass field under
    ``root/src/cyberevo`` that nothing under ``root``'s reader directories
    reads, and ``(never set)`` for a defaulted one that nothing there sets
    outside its own class body.  A call to the class builds another
    instance, so it sets the field wherever it is."""
    package = root / "src" / "cyberevo"
    trees = reader_trees(root)
    classes = [
        (path, node, names, public)
        for path, tree in trees.items() if package in path.parents
        for node, names, public in dataclass_fields(tree)
    ]
    positions = {node.name: names for _, node, names, _ in classes}
    reads = {name for tree in trees.values() for name, _, _ in name_reads(tree)}
    sets: dict[str, list[tuple[Path, int, str | None]]] = {}
    for path, tree in trees.items():
        for name, line, callee in field_sets(tree, positions):
            sets.setdefault(name, []).append((path, line, callee))
    found = []
    for path, node, _, public in classes:
        where = f"{module_name(path, package)}:{node.name}"
        for name, defaulted in public:
            if name not in reads:
                found.append(f"{where}.{name} (unread)")
            elif defaulted and not any(
                setter != path or not node.lineno <= line <= node.end_lineno
                or callee == node.name
                for setter, line, callee in sets.get(name, ())
            ):
                found.append(f"{where}.{name} (never set)")
    return found


def test_fields_used_only_by_tests_are_detected(tmp_path):
    planted = {
        "src/cyberevo/shapes.py": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class Box:\n"
            "    width: int\n"
            "    height: int = 1\n"
            "    depth: int = 1\n"
            "    tested: int = 0\n"
            "    colour: str = field(default=\"red\", compare=False)\n"
            "    label: str = \"\"\n"
            "    _cache: dict = field(default_factory=dict)\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, \"label\", self.label.strip())\n"
            "@dataclass\n"
            "class Stack:\n"
            "    rows: list = field(default_factory=list)\n"
            "    top: int = 0\n"
            "    def copy(self):\n"
            "        return Stack(self.rows[:])\n"
        ),
        # `height` is set by position, `depth` by name in a string, `top`
        # by a store and `rows` by a call to its class in the class body;
        # `label` is set only inside its own class.
        "demos/demo.py": (
            "from cyberevo.shapes import Box, Stack\n"
            "box = Box(2, 3)\n"
            "for name in (\"depth\",):\n"
            "    print(getattr(box, name), box.width, box.height, box.depth, box.colour)\n"
            "stack = Stack().copy()\n"
            "stack.top += len(stack.rows)\n"
            "print(box.label, stack.top)\n"
        ),
        "perfbench/test_bench.py": "from cyberevo.shapes import Box\nBox(1, tested=2).tested\n",
        "tests/test_shapes.py": "from cyberevo.shapes import Box\nBox(1, colour=\"blue\").tested\n",
    }
    for name, source in planted.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    assert unused_dataclass_fields(tmp_path) == [
        "shapes:Box.tested (unread)",
        "shapes:Box.colour (never set)",
        "shapes:Box.label (never set)",
    ]


def test_every_dataclass_field_is_read_and_set_outside_tests():
    root = Path(__file__).resolve().parent.parent
    assert (root / "src" / "cyberevo").is_dir()
    assert unused_dataclass_fields(root) == []
