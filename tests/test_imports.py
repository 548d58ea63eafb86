"""Every module of the package imports on its own and uses what it imports.

The package roots re-export nothing, so an import cycle shows only when
the module on one side of it is imported first.  One subprocess imports
each module from an empty module cache in turn.  Because nothing is
re-exported either, a name a module imports but never reads is dead.
"""

from __future__ import annotations

import ast
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
