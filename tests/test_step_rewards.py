"""Golden per-step blue rewards of full seeded episodes.

The trace-CSV goldens (``test_golden.py``) say *that* a run moved; these
say *where*.  Each case plays full 75-step episodes between two fixed
teams and compares every step's blue reward against
``golden/step_rewards.json``, naming the first step that differs.  The
teams cover sleepers, the FSM adversaries, GA and ES matrices and GE
rule programs (baseline, TC and OE grammars) decoded from genomes drawn
from fixed seeds, and one pair with a controller per agent.

A refactor must leave every reward unchanged; a deliberate behaviour
change re-generates the file with
``PYTHONPATH=src python tests/test_step_rewards.py --regenerate`` and
says so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cyberevo.controllers.base import SleepController
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.episodes import run_episode
from cyberevo.evolution import fresh_individual, make_decoder
from cyberevo.grammar.variants import Variant
from cyberevo.scenario.config import ScenarioConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "step_rewards.json"

SCENARIO = ScenarioConfig()  # the full 75-step episode
SEEDS = (11, 2024)
# name -> (blue team spec, red team spec); a spec is "sleep", "fsm" or
# (algorithm, controllers per team, grammar variant, genome seed).
PAIRS = {
    "sleep-sleep": ("sleep", "sleep"),
    "fsm-fsm": ("fsm", "fsm"),
    "sleep-fsm": ("sleep", "fsm"),
    "ga-fsm": (("GA", "one", Variant.BASELINE, 1), "fsm"),
    "fsm-es": ("fsm", ("ES", "one", Variant.BASELINE, 2)),
    "ge-fsm": (("GE", "one", Variant.BASELINE, 3), "fsm"),
    "fsm-ge_tc": ("fsm", ("GE", "one", Variant.TC, 4)),
    "ge_oe-ge": (("GE", "one", Variant.OE, 5), ("GE", "one", Variant.BASELINE, 6)),
    "fsm-ge": ("fsm", ("GE", "one", Variant.BASELINE, 7)),
    "many_ga-many_ge": (("GA", "many", Variant.BASELINE, 8), ("GE", "many", Variant.BASELINE, 9)),
}


def build_team(spec, side: str):
    if spec == "sleep":
        return [SleepController(side)]
    if spec == "fsm":
        return [load_fsm_adversary(side)]
    algorithm, controllers, variant, genome_seed = spec
    decoder = make_decoder(algorithm, side, controllers, variant)
    individual = fresh_individual(decoder, np.random.default_rng(genome_seed))
    assert individual.valid, f"no valid {algorithm} {side} team from seed {genome_seed}"
    return individual.team


def case_key(pair: str, seed: int) -> str:
    return f"{pair}/seed{seed}"


def play(pair: str, seed: int) -> list[float]:
    blue_spec, red_spec = PAIRS[pair]
    result = run_episode(SCENARIO, seed, build_team(blue_spec, "blue"), build_team(red_spec, "red"))
    return list(result.blue_rewards)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pair", PAIRS)
def test_episode_rewards_match_their_golden(golden, pair, seed):
    expected = golden[case_key(pair, seed)]
    got = play(pair, seed)
    assert len(got) == len(expected) == SCENARIO.steps
    for step, (want, have) in enumerate(zip(expected, got)):
        assert have == want, f"first differing step {step}: blue reward {have!r}, golden {want!r}"


def test_golden_file_covers_exactly_the_cases(golden):
    assert set(golden) == {case_key(p, s) for p in PAIRS for s in SEEDS}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_step_rewards.py --regenerate")
    table = {case_key(p, s): play(p, s) for p in PAIRS for s in SEEDS}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} episodes to {GOLDEN_PATH}")
