"""No package decoder builds a controller that faults the engine.

`SimulationFault` guards `ScenarioSim` against controller bugs: an
illegal action, a submission while busy, a target of the wrong kind.
Every decoder the package runs is meant to build only legal
controllers, so random genomes of each one, decoded and played through
`run_episode` against the fixed and the sleeping adversary, must never
trip a guard.  The decoders are ES and GA in both team modes and GE at
every grammar variant in both team modes, on both sides.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberevo.controllers.base import SleepController
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.episodes import run_episode
from cyberevo.evolution import make_decoder
from cyberevo.grammar.variants import Variant
from cyberevo.scenario.config import ScenarioConfig

CONFIG = ScenarioConfig(steps=8, phase_boundaries=(3, 6))

DECODERS = [
    (algorithm, side, mode, Variant.BASELINE)
    for algorithm in ("ES", "GA") for side in ("red", "blue") for mode in ("one", "many")
] + [
    ("GE", side, mode, variant)
    for variant in Variant for side in ("red", "blue") for mode in ("one", "many")
]


def decoder_id(spec) -> str:
    algorithm, side, mode, variant = spec
    label = f"{algorithm}-{side}-{mode}"
    return f"{label}-{variant.value}" if algorithm == "GE" else label


@pytest.mark.parametrize("spec", DECODERS, ids=decoder_id)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decoded_controllers_never_fault(spec, seed):
    algorithm, side, mode, variant = spec
    decoder = make_decoder(algorithm, side, mode, variant)
    individual = decoder.decode(decoder.random_genome(np.random.default_rng(seed)))
    assert individual.valid
    other = "blue" if side == "red" else "red"
    for episode, opponent in enumerate(([load_fsm_adversary(other)], [SleepController(other)])):
        teams = {side: individual.team, other: opponent}
        # A SimulationFault raised here fails the test with its message.
        run_episode(CONFIG, seed + episode, teams["blue"], teams["red"])
