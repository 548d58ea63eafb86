"""The benchmark's workloads, driven through cyberevo's public API.

Each workload is closed-loop with one client, this process: it issues
its next call only after the previous one returned, with no threads or
subprocesses.  Construction is the workload's set-up (tables, grammars,
configs).  A workload is an endless seeded stream of independent units;
unit ``i``'s seed derives from the workload seed and ``i``, and
``run_unit(i)`` runs it and returns its output bytes and counts.  A
*round* runs the next ``per_round`` units of the stream.

The cost of a unit depends on its seed (an episode's length, an evolved
program's size), and the machine's speed drifts while a run goes on.
So a run is many short rounds of distinct units, and the end-to-end
metrics are medians over its rounds: a slow spell of the machine that
covers less than half of the rounds barely moves them, and seed-to-seed
differences average out over all the units of the run.

- ``fsm-episodes``: independent 75-step FSM-blue vs FSM-red episodes.
  Pure simulator throughput: it isolates the engine, the classifier and
  the matrix controllers, and bypasses evolution, grammar and LLM.
- ``ge-coevolution``: a reduced GE-C run.  Its all-vs-all pairings are
  the independent work a parallel evaluator would spread, and its rule
  controllers exercise ``rule_decide`` and the observation sums it reads.
- ``ge-llm-short``: a reduced GE-LLM-B run with the offline mock client
  and 8-step episodes.  With a real backend, mutation rather than
  simulation dominates such a run; short episodes reproduce that mix
  offline, with per-episode set-up and topology generation heavy.  The
  mock's programs grow every generation, so the run length shapes the mix.

Modules are looked up when the workload is built, never at import of this
file, so the set-up timing can import ``cyberevo`` afresh.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

# Units in one round and the work in each unit, at each size.  "tiny"
# exists for the benchmark's self-test; "full" is what the metrics are
# measured on.  A full round takes about 3 s on a 2-core box.
SIZES = {
    "fsm-episodes": {
        "full": {"per_round": 32, "steps": 75},
        "tiny": {"per_round": 2, "steps": 8},
    },
    "ge-coevolution": {
        "full": {"per_round": 1, "population": 3, "iterations": 2, "steps": 75},
        "tiny": {"per_round": 2, "population": 2, "iterations": 2, "steps": 8},
    },
    "ge-llm-short": {
        "full": {"per_round": 1, "population": 10, "iterations": 30, "steps": 8},
        "tiny": {"per_round": 2, "population": 4, "iterations": 3, "steps": 8},
    },
}


def unit_seed(seed: int, index: int) -> int:
    """The seed of a workload's unit ``index``, derived here rather than by cyberevo."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class UnitResult:
    """What one unit produced, plus the accounting checks it failed."""

    output: bytes
    episodes: int
    llm_calls: int = 0
    llm_failures: int = 0
    llm_tokens: int = 0
    problems: tuple[str, ...] = ()


def _scenario(steps: int):
    """Scenario of ``steps`` steps, phase boundaries scaled as ``cyberevo run --steps`` does."""
    config = importlib.import_module("cyberevo.scenario.config").ScenarioConfig
    default = config()
    if steps == default.steps:
        return default
    scale = steps / default.steps
    first = max(1, round(default.phase_boundaries[0] * scale))
    second = max(first + 1, round(default.phase_boundaries[1] * scale))
    return config(steps=steps, phase_boundaries=(first, second))


class FsmEpisodes:
    """Unit: one FSM-blue vs FSM-red episode; output: its per-step blue rewards."""

    name = "fsm-episodes"

    def __init__(self, seed: int, size: str, out_dir: str):
        params = SIZES[self.name][size]
        self.episodes = importlib.import_module("cyberevo.episodes")
        fsm = importlib.import_module("cyberevo.controllers.fsm")
        self.config = _scenario(params["steps"])
        self.blue = [fsm.load_fsm_adversary("blue")]
        self.red = [fsm.load_fsm_adversary("red")]
        self.seed = seed
        self.per_round = params["per_round"]

    def run_unit(self, index: int) -> UnitResult:
        result = self.episodes.run_episode(self.config, unit_seed(self.seed, index),
                                           self.blue, self.red)
        return UnitResult(np.asarray(result.blue_rewards, dtype="<f8").tobytes(), 1)


class _Experiment:
    """Unit: one reduced registered experiment, run to its written CSV and
    meta; output: the CSV bytes."""

    experiment = ""
    csv_factor = 1  # how many CSV rows carry each iteration's episode count

    def __init__(self, seed: int, size: str, out_dir: str):
        params = SIZES[self.name][size]
        self.experiments = importlib.import_module("cyberevo.experiments")
        evolution = importlib.import_module("cyberevo.evolution")
        self.spec = self.experiments.get_experiment(self.experiment)
        self.seed = seed
        self.per_round = params["per_round"]
        self.scenario = _scenario(params["steps"])
        self.evo = evolution.EvoConfig(
            population_size=params["population"], iterations=params["iterations"],
            trials=1, repetitions=1, controllers_per_team=self.spec.controllers_per_team,
        )
        self.out_dir = out_dir
        # Grammars and FSM tables sit behind caches; fill them here.
        for side in ("red", "blue"):
            evolution.make_decoder(self.spec.algorithm, side, self.evo.controllers_per_team,
                                   self.spec.variant)
        importlib.import_module("cyberevo.controllers.fsm").load_fsm_adversary("red")

    def run_unit(self, index: int) -> UnitResult:
        outcome = self.experiments.run_experiment(
            self.spec, self.out_dir, master_seed=unit_seed(self.seed, index), evo=self.evo,
            scenario=self.scenario,
        )
        with open(outcome.csv_path, "rb") as handle:
            data = handle.read()
        with open(outcome.meta_path) as handle:
            meta = json.load(handle)
        total = outcome.result.episodes_total
        problems = []
        rows = csv.DictReader(io.StringIO(data.decode()))
        summed = sum(int(row["episodes_used"]) for row in rows)
        if summed != self.csv_factor * total:
            problems.append(
                f"CSV episodes_used sums to {summed}, expected {self.csv_factor} x {total}"
            )
        if meta["episodes_total"] != total:
            problems.append(f"meta episodes_total {meta['episodes_total']} != {total}")
        llm = outcome.result.llm_report or {}
        return UnitResult(
            output=data,
            episodes=total,
            llm_calls=llm.get("calls", 0),
            llm_failures=llm.get("parse_failures", 0) + llm.get("transport_failures", 0),
            llm_tokens=llm.get("tokens_total", 0),
            problems=tuple(problems),
        )


class GeCoevolution(_Experiment):
    name = "ge-coevolution"
    experiment = "GE-C"
    # Coevolution writes the iteration's episode count on both the red
    # and the blue row, so the CSV sum is twice the real total.
    csv_factor = 2


class GeLlmShort(_Experiment):
    name = "ge-llm-short"
    experiment = "GE-LLM-B"


WORKLOADS = {w.name: w for w in (FsmEpisodes, GeCoevolution, GeLlmShort)}


def output_dir(root: str, workload: str, seed: int, size: str) -> str:
    path = os.path.join(root, f"{workload}-{size}-seed{seed}")
    os.makedirs(path, exist_ok=True)
    return path
