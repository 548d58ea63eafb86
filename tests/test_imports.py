"""Every module of the package imports on its own.

The package roots re-export nothing, so an import cycle shows only when
the module on one side of it is imported first.  One subprocess imports
each module from an empty module cache in turn.
"""

from __future__ import annotations

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


def package_modules() -> list[str]:
    """Dotted names of every module and package."""
    package_dir = Path(cyberevo.__file__).resolve().parent
    names = []
    for path in sorted(package_dir.rglob("*.py")):
        parts = ("cyberevo",) + path.relative_to(package_dir).with_suffix("").parts
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
