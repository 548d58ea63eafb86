"""Competitive coevolution: pairing matrix, utilities, penalties, full runs."""

from __future__ import annotations

import numpy as np
import pytest

from cyberevo.coevolution import (
    _assign_fitness,
    all_vs_all,
    coevolve,
    mean_expected_utility,
)
from cyberevo.evolution import (
    INVALID_PENALTY,
    EvolutionResult,
    EvoConfig,
    Individual,
    MatrixTeamDecoder,
    RuleTeamDecoder,
)
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.topology import TopologyBounds
from helpers import FixedActionController

TINY = ScenarioConfig(
    steps=6,
    phase_boundaries=(2, 4),
    bounds=TopologyBounds(servers=(1, 1), user_hosts=(3, 3), services=(1, 1)),
)

SMALL_EVO = EvoConfig(
    population_size=3, iterations=3, trials=1, repetitions=1
)


def individual(valid=True, team=None, genome=None) -> Individual:
    return Individual(
        genome=np.zeros(2) if genome is None else genome,
        team=team,
        valid=valid,
    )


# ---------------------------------------------------------------------------
# mean expected utility


def test_mean_expected_utility_hand_example():
    matrix = np.array([[2.0, 4.0], [0.0, 6.0]])
    red, blue = mean_expected_utility(matrix)
    assert red.tolist() == [3.0, 3.0]  # row means
    assert blue.tolist() == [-1.0, -5.0]  # negated column means


def test_mean_expected_utility_is_zero_sum_in_aggregate():
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(7, 5)) * 40
    red, blue = mean_expected_utility(matrix)
    assert red.sum() / 7 == pytest.approx(-blue.sum() / 5, abs=1e-12)


def test_assign_fitness_penalizes_relative_to_surviving_best():
    population = [individual(), individual(valid=False), individual()]
    utilities = np.array([5.0, 99.0, -3.0])
    faults = np.array([False, False, True])
    _assign_fitness(population, utilities, faults)
    assert population[0].fitness == 5.0
    assert population[1].fitness == 5.0 - INVALID_PENALTY  # invalid: ignores its utility
    assert population[2].fitness == 5.0 - INVALID_PENALTY  # faulted: same treatment
    # with no real scores at all, the penalty is anchored at zero
    only_bad = [individual(valid=False)]
    _assign_fitness(only_bad, np.array([1.0]), np.array([False]))
    assert only_bad[0].fitness == -INVALID_PENALTY


# ---------------------------------------------------------------------------
# the pairing matrix


def decoded(decoder, rng):
    return decoder.decode(decoder.random_genome(rng))


def test_all_vs_all_plays_every_pairing_the_same_number_of_times():
    rng = np.random.default_rng(2)
    red_decoder = MatrixTeamDecoder("red")
    blue_decoder = MatrixTeamDecoder("blue")
    reds = [decoded(red_decoder, rng) for _ in range(3)]
    blues = [decoded(blue_decoder, rng) for _ in range(2)]
    evo = EvoConfig(population_size=3, repetitions=2)
    matrix, faults, episodes = all_vs_all(reds, blues, TINY, evo, 50, 0, 0)
    assert matrix.shape == (3, 2)
    assert faults.shape == (3, 2)
    assert not faults.any()
    assert episodes == 3 * 2 * 2


def test_all_vs_all_is_deterministic_in_the_seed():
    rng = np.random.default_rng(3)
    reds = [decoded(MatrixTeamDecoder("red"), rng) for _ in range(2)]
    blues = [decoded(MatrixTeamDecoder("blue"), rng) for _ in range(2)]
    evo = EvoConfig(repetitions=1)
    first, _, _ = all_vs_all(reds, blues, TINY, evo, 51, 0, 0)
    second, _, _ = all_vs_all(reds, blues, TINY, evo, 51, 0, 0)
    assert np.array_equal(first, second)
    moved, _, _ = all_vs_all(reds, blues, TINY, evo, 51, 0, 1)
    assert not np.array_equal(first, moved)  # new iteration, new episodes


def test_invalid_individuals_compete_as_sleepers():
    from cyberevo.controllers.base import SleepController

    rng = np.random.default_rng(4)
    reds = [individual(valid=False), decoded(MatrixTeamDecoder("red"), rng)]
    blues = [decoded(MatrixTeamDecoder("blue"), rng)]
    evo = EvoConfig(repetitions=1)
    matrix, faults, _ = all_vs_all(reds, blues, TINY, evo, 52, 0, 0)
    assert not faults.any()  # a sleeper team plays clean episodes
    # slot 0 scores exactly what an explicit sleeper team would score there
    sleeper = Individual(genome=np.zeros(1), team=[SleepController("red")], valid=True)
    explicit, _, _ = all_vs_all([sleeper, reds[1]], blues, TINY, evo, 52, 0, 0)
    assert matrix[0, 0] == explicit[0, 0]


def test_faults_poison_rows_and_columns():
    rng = np.random.default_rng(5)
    bad_blue = individual(team=[FixedActionController("blue", "Impact")])
    good_blue = decoded(MatrixTeamDecoder("blue"), rng)
    reds = [decoded(MatrixTeamDecoder("red"), rng) for _ in range(2)]
    evo = EvoConfig(repetitions=1)
    matrix, faults, episodes = all_vs_all(reds, [bad_blue, good_blue], TINY, evo, 53, 0, 0)
    assert faults[:, 0].all()  # every episode against the bad blue faulted
    assert not faults[:, 1].any()
    assert episodes == 4  # faulted pairings still consume their budget
    red_util, blue_util = mean_expected_utility(matrix)
    populations = ([r for r in reds], [bad_blue, good_blue])
    _assign_fitness(populations[0], red_util, faults.any(axis=1))
    _assign_fitness(populations[1], blue_util, faults.any(axis=0))
    for red in reds:
        assert red.fitness == -INVALID_PENALTY  # poisoned rows leave no real red scores
    assert bad_blue.fitness == good_blue.fitness - INVALID_PENALTY
    assert good_blue.fitness > bad_blue.fitness


# ---------------------------------------------------------------------------
# full runs


def test_coevolve_trace_shape_and_episode_accounting():
    result = coevolve(
        MatrixTeamDecoder("red"), MatrixTeamDecoder("blue"),
        TINY, SMALL_EVO, master_seed=60, label="ES-C",
    )
    records = result.trace.records
    assert len(records) == SMALL_EVO.trials * SMALL_EVO.iterations * 2
    per_iteration = SMALL_EVO.population_size ** 2 * SMALL_EVO.repetitions
    for k in range(0, len(records), 2):
        red_rec, blue_rec = records[k], records[k + 1]
        assert (red_rec.side, blue_rec.side) == ("red", "blue")
        assert (red_rec.trial, red_rec.iteration) == (blue_rec.trial, blue_rec.iteration)
        assert red_rec.episodes_used == blue_rec.episodes_used == per_iteration
        assert red_rec.algorithm == blue_rec.algorithm == "ES-C"
    assert result.episodes_total == per_iteration * SMALL_EVO.iterations
    assert len(result.best_per_trial["red"]) == len(result.best_per_trial["blue"]) == 1
    assert isinstance(result, EvolutionResult)
    assert result.best("red").fitness is not None
    assert result.best("blue").fitness is not None
    assert result.llm_report is None


def test_coevolve_mirrors_red_and_blue_means_exactly():
    result = coevolve(
        MatrixTeamDecoder("red"), MatrixTeamDecoder("blue"),
        TINY, SMALL_EVO, master_seed=61, label="ES-C",
    )
    records = result.trace.records
    for k in range(0, len(records), 2):
        assert records[k].mean == pytest.approx(-records[k + 1].mean, abs=1e-9)


def test_coevolve_is_reproducible():
    def run():
        return coevolve(
            MatrixTeamDecoder("red"), MatrixTeamDecoder("blue"),
            TINY, SMALL_EVO, master_seed=62, label="GA-C",
        ).trace.records

    assert run() == run()


def test_coevolve_rejects_an_llm_client_with_many_controllers():
    # LLM mutation edits one shared program, so "many" would silently
    # collapse to one controller after the first edit.
    with pytest.raises(ValueError):
        coevolve(
            RuleTeamDecoder("red", mode="many"), RuleTeamDecoder("blue", mode="many"),
            TINY,
            EvoConfig(population_size=2, iterations=1, trials=1,
                      controllers_per_team="many"),
            master_seed=1, label="GE-LLM-C", llm_client=object(),
        )
