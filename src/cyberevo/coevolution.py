"""Competitive coevolution of both sides with all-vs-all evaluation.

Each iteration plays every red individual against every blue individual
for a fixed number of repeated episodes and stores the mean red episode
reward in a pairing matrix.  Fitness is Mean Expected Utility: a red
individual scores its row mean, a blue individual the negated column
mean.  Elites survive structurally but are re-evaluated with everyone
else — in a changing opponent population there is no exact fitness to
cache, so best fitness may move down as well as up.
"""

from __future__ import annotations

import numpy as np

from .controllers.base import SleepController
from .errors import SimulationFault
from .evolution import (
    INVALID_PENALTY,
    EvoConfig,
    EvolutionResult,
    Individual,
    _generational_loop,
    episode_seeds,
    evaluate_team,
)
from .scenario.config import ScenarioConfig


def mean_expected_utility(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fitness vectors from a red-rows × blue-columns reward matrix."""
    matrix = np.asarray(matrix, dtype=float)
    red = matrix.mean(axis=1)
    blue = -matrix.mean(axis=0)
    return red, blue


def _playable(individual: Individual, side: str):
    """Invalid individuals compete as sleepers so the matrix stays full."""
    if individual.valid and individual.team is not None:
        return individual.team
    return [SleepController(side)]


def all_vs_all(
    red_population: list[Individual],
    blue_population: list[Individual],
    scenario: ScenarioConfig,
    evo: EvoConfig,
    master_seed: int,
    trial: int,
    iteration: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Play every pairing; returns (reward matrix, fault mask, episodes)."""
    n_red = len(red_population)
    n_blue = len(blue_population)
    matrix = np.zeros((n_red, n_blue))
    faults = np.zeros((n_red, n_blue), dtype=bool)
    episodes = 0
    for i, red in enumerate(red_population):
        red_team = _playable(red, "red")
        for j, blue in enumerate(blue_population):
            blue_team = _playable(blue, "blue")
            seeds = episode_seeds(master_seed, trial, iteration, i, j, evo.repetitions)
            try:
                matrix[i, j] = evaluate_team(red_team, blue_team, "red", scenario, seeds)
            except SimulationFault:
                faults[i, j] = True
            episodes += len(seeds)
    return matrix, faults, episodes


def _assign_fitness(
    population: list[Individual],
    utilities: np.ndarray,
    fault_rows: np.ndarray,
) -> None:
    real = [
        float(u)
        for ind, u, faulted in zip(population, utilities, fault_rows)
        if ind.valid and not faulted
    ]
    worst = min(real) if real else 0.0
    for individual, utility, faulted in zip(population, utilities, fault_rows):
        if individual.valid and not faulted:
            individual.fitness = float(utility)
        else:
            individual.fitness = worst - INVALID_PENALTY


def coevolve(
    red_decoder,
    blue_decoder,
    scenario: ScenarioConfig,
    evo: EvoConfig,
    master_seed: int,
    label: str,
    llm_client=None,
) -> EvolutionResult:
    """Run competitive coevolution and log one record per side per iteration.

    Each iteration's red and blue records both carry the whole
    iteration's episode count, so summing ``episodes_used`` over a
    coevolution trace counts every episode twice; ``episodes_total``
    counts each once.
    """

    def assign_fitness(populations, trial, iteration) -> int:
        reds, blues = populations["red"], populations["blue"]
        matrix, faults, episodes = all_vs_all(
            reds, blues, scenario, evo, master_seed, trial, iteration
        )
        red_util, blue_util = mean_expected_utility(matrix)
        _assign_fitness(reds, red_util, faults.any(axis=1))
        _assign_fitness(blues, blue_util, faults.any(axis=0))
        return episodes

    return _generational_loop(
        {"red": red_decoder, "blue": blue_decoder}, assign_fitness, evo,
        master_seed, label, llm_client,
    )
