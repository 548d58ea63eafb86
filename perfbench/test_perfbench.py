"""Smoke test of the benchmark command at minimal size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)
with open(os.path.join(HERE, "expected.json")) as _handle:
    PINNED = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DEFAULT_SEED = "1000"


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--size", "tiny", "--seconds", "0.5",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    assert PINNED[workload]["tiny"][DEFAULT_SEED], "the tiny default-seed digest is pinned"
    done = run_bench("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert f"\n{metric['name']} " in done.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_pinned_digest_is_a_failure(workload, tmp_path):
    pinned = json.loads(json.dumps(PINNED))
    rounds = len(PINNED[workload]["tiny"][DEFAULT_SEED])
    pinned[workload]["tiny"][DEFAULT_SEED] = ["0" * 64] * rounds
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(pinned))
    done = run_bench("--workload", workload, "--expected", str(expected))
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "differs from the pinned" in done.stderr


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
