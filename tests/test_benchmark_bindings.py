"""The benchmark's tracer binds cyberevo names from outside the package.

``perfbench/tracer.py`` rebinds every function and method in its
``LAYERS`` table by dotted name.  A rename in ``src/`` would otherwise
surface only as a crash of a traced benchmark run, so resolve each
binding here with the tracer's own resolver.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("binding", [spec for _, spec, _ in TRACER.LAYERS])
def test_every_traced_name_resolves(binding):
    owner, attr, target = TRACER._resolve(binding)
    assert callable(target), binding
    assert getattr(owner, attr) is target
