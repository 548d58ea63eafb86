"""The benchmark binds cyberevo names from outside the package.

``perfbench/tracer.py`` rebinds every function and method in its
``LAYERS`` table by dotted name, and ``perfbench/workloads.py`` drives
the public API and checks its output against the digests pinned in
``perfbench/expected.json``.  A rename in ``src/``, a dropped argument
or a change of seeded output would otherwise surface only when the
benchmark runs, so resolve each binding here with the tracer's own
resolver, and replay round 0 of the default seed of every workload.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DEFAULT_SEED = 1000


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while it is built.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


TRACER = load_module("perfbench_tracer", PERFBENCH / "tracer.py")
WORKLOADS = load_module("perfbench_workloads", PERFBENCH / "workloads.py")
PINNED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("binding", [spec for _, spec, _ in TRACER.LAYERS])
def test_every_traced_name_resolves(binding):
    owner, attr, target = TRACER._resolve(binding)
    assert callable(target), binding
    assert getattr(owner, attr) is target


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_round_zero_matches_its_pinned_digest(workload, size, tmp_path):
    bench = WORKLOADS.WORKLOADS[workload](DEFAULT_SEED, size, str(tmp_path))
    digest = hashlib.sha256()
    for unit in range(bench.per_round):  # round 0's units, in order
        result = bench.run_unit(unit)
        assert result.problems == ()
        digest.update(result.output)
    assert digest.hexdigest() == PINNED[workload][size][str(DEFAULT_SEED)][0]


def test_round_zero_of_the_tiny_workloads_reaches_every_traced_layer(tmp_path):
    """A hot-path edit that stops calling a traced name, say by binding
    it at import time, would leave that layer's row empty."""
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        for workload in sorted(WORKLOADS.WORKLOADS):
            bench = WORKLOADS.WORKLOADS[workload](DEFAULT_SEED, "tiny", str(tmp_path / workload))
            for unit in range(bench.per_round):
                assert bench.run_unit(unit).problems == ()
    finally:
        tracer.uninstall()
    unreached = [name for name in TRACER.LAYER_NAMES if tracer.totals[name][0] == 0]
    assert unreached == []
