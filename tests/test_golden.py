"""Golden trace digests: seeded runs must reproduce their pinned bytes.

Each case runs one registered experiment at a reduced size and compares
the sha256 of its trace CSV, its episode total and, for LLM runs, its
call count against ``golden/trace_digests.json``.  A refactor must leave
every digest unchanged; a deliberate behaviour change re-generates the
file with ``PYTHONPATH=src python tests/test_golden.py --regenerate``
and says so in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from cyberevo.evolution import EvoConfig
from cyberevo.experiments import get_experiment, run_experiment
from cyberevo.scenario.config import ScenarioConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_digests.json"

# 12-step episodes with the default phase boundaries scaled to fit,
# as ``cyberevo run --steps 12`` builds them.
SCENARIO = ScenarioConfig(steps=12, phase_boundaries=(4, 8))
SEEDS = (3, 1000)
# (experiment, controllers per team)
CASES = (
    ("ES-B", "one"),
    ("GA-R", "one"),
    ("GE-B-TC", "one"),
    ("GE-R-OE", "many"),
    ("GA-C", "one"),
    ("GE-C", "one"),
    ("GE-LLM-B", "one"),
)


def case_key(name: str, controllers: str, seed: int) -> str:
    return f"{name}/{controllers}/seed{seed}"


def run_case(name: str, controllers: str, seed: int, outdir: Path) -> dict:
    """Digest, episode total and LLM call count of one reduced run."""
    spec = dataclasses.replace(get_experiment(name), controllers_per_team=controllers)
    evo = EvoConfig(population_size=4, iterations=3, trials=2, repetitions=1,
                    controllers_per_team=controllers)
    outcome = run_experiment(spec, str(outdir), master_seed=seed, evo=evo,
                             scenario=SCENARIO, llm_settings={"kind": "mock"})
    digest = hashlib.sha256(Path(outcome.csv_path).read_bytes()).hexdigest()
    llm = outcome.result.llm_report or {}
    return {
        "csv_sha256": digest,
        "episodes_total": outcome.result.episodes_total,
        "llm_calls": llm.get("calls", 0),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,controllers", CASES)
def test_reduced_run_matches_its_golden(golden, tmp_path, name, controllers, seed):
    got = run_case(name, controllers, seed, tmp_path)
    assert got == golden[case_key(name, controllers, seed)]


def test_golden_file_covers_exactly_the_cases(golden):
    expected = {case_key(n, c, s) for n, c in CASES for s in SEEDS}
    assert set(golden) == expected


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            case_key(n, c, s): run_case(n, c, s, Path(tmp))
            for n, c in CASES for s in SEEDS
        }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}")
