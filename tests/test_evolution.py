"""One-sided evolutionary loop: operators, penalties, full small runs."""

from __future__ import annotations

import numpy as np
import pytest

from cyberevo import evolution
from cyberevo.controllers.base import SleepController
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.controllers.matrix import MatrixController
from cyberevo.controllers.rules import RuleController
from cyberevo.episodes import run_episode
from cyberevo.errors import ControllerError
from cyberevo.evolution import (
    CODON_MAX,
    CROSSOVER_P,
    ELITE_COUNT,
    ES_SIGMA,
    GE_GENOME_LENGTH,
    INVALID_PENALTY,
    INVALID_RETRY_CAP,
    MUTATION_P,
    TOURNAMENT_SIZE,
    EvoConfig,
    Individual,
    MatrixTeamDecoder,
    RuleTeamDecoder,
    episode_seeds,
    evaluate_team,
    evolve_one_sided,
    fresh_individual,
    make_decoder,
    one_point_crossover,
    tournament_select,
)
from cyberevo.scenario import engine
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.topology import TopologyBounds
from cyberevo.traces import running_best
from helpers import FixedActionController

TINY = ScenarioConfig(
    steps=6,
    phase_boundaries=(2, 4),
    bounds=TopologyBounds(servers=(1, 1), user_hosts=(3, 3), services=(1, 1)),
)

SMALL_EVO = EvoConfig(population_size=4, iterations=3, trials=2, repetitions=1)


class ScriptRng:
    """Plays back a fixed sequence of integer draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def integers(self, *args, **kwargs):
        return self.draws.pop(0)


def individual(fitness: float) -> Individual:
    return Individual(genome=np.zeros(1), team=None, valid=True, fitness=fitness)


# ---------------------------------------------------------------------------
# configuration


def test_evo_config_validation():
    with pytest.raises(ValueError):
        EvoConfig(population_size=1)
    with pytest.raises(ValueError):
        EvoConfig(controllers_per_team="both")
    for name in ("iterations", "trials", "repetitions"):
        with pytest.raises(ValueError, match=name):
            EvoConfig(**{name: 0})
    defaults = EvoConfig()
    assert (defaults.population_size, defaults.iterations, defaults.trials) == (10, 20, 6)
    assert (defaults.repetitions, ELITE_COUNT, TOURNAMENT_SIZE) == (2, 1, 2)
    assert CROSSOVER_P == MUTATION_P == 0.5


def test_fixed_settings_are_in_range():
    """The experiment setup's constants keep the ranges the loop needs."""
    probabilities = {name: value for name, value in vars(engine).items() if name.endswith("_P")}
    assert len(probabilities) == 9
    probabilities.update(CROSSOVER_P=CROSSOVER_P, MUTATION_P=MUTATION_P)
    for name, p in probabilities.items():
        assert 0.0 <= p <= 1.0, name
    assert ES_SIGMA >= 0 and INVALID_RETRY_CAP >= 0
    assert TOURNAMENT_SIZE >= 1
    EvoConfig(population_size=2)  # the smallest population allowed (1 is refused above)
    assert 0 <= ELITE_COUNT < 2


# ---------------------------------------------------------------------------
# selection and crossover


def test_tournament_picks_the_fitter_candidate():
    population = [individual(3.0), individual(9.0)]
    assert tournament_select(population, ScriptRng([0, 1])) is population[1]
    assert tournament_select(population, ScriptRng([1, 0])) is population[1]
    assert tournament_select(population, ScriptRng([0, 0])) is population[0]


def test_tournament_tie_keeps_the_earliest_draw():
    population = [individual(5.0), individual(5.0)]
    assert tournament_select(population, ScriptRng([0, 1])) is population[0]
    assert tournament_select(population, ScriptRng([1, 0])) is population[1]


def test_tournament_size_controls_the_number_of_draws(monkeypatch):
    monkeypatch.setattr(evolution, "TOURNAMENT_SIZE", 3)
    population = [individual(1.0), individual(2.0), individual(3.0)]
    assert tournament_select(population, ScriptRng([0, 1, 2])) is population[2]


def test_one_point_crossover_swaps_tails():
    a = np.array([1, 1, 1, 1])
    b = np.array([2, 2, 2, 2])
    child_a, child_b = one_point_crossover(a, b, ScriptRng([2]))
    assert child_a.tolist() == [1, 1, 2, 2]
    assert child_b.tolist() == [2, 2, 1, 1]


def test_crossover_cut_stays_strictly_inside():
    rng = np.random.default_rng(1)
    a, b = np.zeros(2), np.ones(2)
    for _ in range(20):
        child_a, child_b = one_point_crossover(a, b, rng)
        assert child_a.tolist() == [0.0, 1.0]  # the only legal cut is 1
        assert child_b.tolist() == [1.0, 0.0]
    with pytest.raises(ValueError):
        one_point_crossover(np.zeros(3), np.zeros(4), rng)


# ---------------------------------------------------------------------------
# decoders


def test_matrix_decoder_genomes_and_mutation(monkeypatch):
    rng = np.random.default_rng(2)
    es = MatrixTeamDecoder("blue", "one", "continuous")
    genome = es.random_genome(rng)
    assert genome.shape == (180,)
    assert ((genome >= 0) & (genome < 1)).all()
    individual = es.decode(genome)
    assert individual.valid and len(individual.team) == 1
    assert isinstance(individual.team[0], MatrixController)
    assert individual.genome is genome

    before = genome.copy()
    monkeypatch.setattr(evolution, "MUTATION_P", 0.0)
    frozen = es.mutate(genome, rng)
    assert np.array_equal(frozen, genome)
    monkeypatch.setattr(evolution, "MUTATION_P", 1.0)
    shaken = es.mutate(genome, rng)
    assert not np.array_equal(shaken, genome)
    assert ((shaken >= 0) & (shaken <= 1)).all()  # Gaussian noise is clipped
    assert np.array_equal(genome, before)  # mutation copies, never edits in place

    ga = MatrixTeamDecoder("red", "many", "discrete4")
    codes = ga.random_genome(rng)
    assert codes.shape == (432,)
    assert set(np.unique(codes)) <= {0, 1, 2, 3}
    redrawn = ga.mutate(codes, rng)
    assert set(np.unique(redrawn)) <= {0, 1, 2, 3}
    assert len(ga.decode(codes).team) == 6


def test_rule_decoder_genomes_and_decoding(monkeypatch):
    rng = np.random.default_rng(3)
    decoder = RuleTeamDecoder("blue")
    assert decoder.genome_length == GE_GENOME_LENGTH
    genome = decoder.random_genome(rng)
    assert genome.min() >= 0 and genome.max() <= CODON_MAX
    individual = decoder.decode(genome)
    assert individual.genome is genome
    if individual.valid:
        assert len(individual.team) == 1
        assert isinstance(individual.team[0], RuleController)
        assert individual.program.startswith("def select_action_and_target")
        assert individual.team[0].ast is not None
    many = RuleTeamDecoder("red", mode="many")
    assert many.genome_length == GE_GENOME_LENGTH * 6
    monkeypatch.setattr(evolution, "MUTATION_P", 1.0)
    mutated = decoder.mutate(genome, rng)
    assert mutated.min() >= 0 and mutated.max() <= CODON_MAX
    assert not np.array_equal(mutated, genome)


def test_rule_decoder_many_mode_splits_chunks():
    decoder = RuleTeamDecoder("blue", mode="many")
    assert decoder.genome_length == GE_GENOME_LENGTH * 5
    genome = np.tile([0, 0, 1, 2], GE_GENOME_LENGTH // 4 * 5)
    individual = decoder.decode(genome)
    assert individual.valid
    assert len(individual.team) == 5
    assert individual.program.count("action = Monitor") == 5


def test_decoders_reject_unknown_controller_modes():
    for decoder_cls in (MatrixTeamDecoder, RuleTeamDecoder):
        with pytest.raises(ControllerError, match="'one' or 'many'"):
            decoder_cls("red", mode="several")


def test_make_decoder_maps_algorithms_to_representations():
    assert make_decoder("ES", "blue").encoding == "continuous"
    assert make_decoder("GA", "red").encoding == "discrete4"
    assert isinstance(make_decoder("GE", "blue"), RuleTeamDecoder)
    assert isinstance(make_decoder("GE-LLM", "red"), RuleTeamDecoder)
    with pytest.raises(ValueError):
        make_decoder("PSO", "blue")


class NeverValid:
    genome_length = 8

    def __init__(self):
        self.calls = 0

    def random_genome(self, rng):
        return rng.integers(0, 4, size=8)

    def decode(self, genome):
        self.calls += 1
        return Individual(genome, None, False)

    def mutate(self, genome, rng):
        return genome.copy()


def test_fresh_individual_retries_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(evolution, "INVALID_RETRY_CAP", 5)
    decoder = NeverValid()
    result = fresh_individual(decoder, np.random.default_rng(4))
    assert not result.valid
    assert result.team is None
    assert decoder.calls == 6  # first try plus five retries


def test_fresh_individual_stops_at_first_valid():
    decoder = MatrixTeamDecoder("blue")
    result = fresh_individual(decoder, np.random.default_rng(5))
    assert result.valid
    assert result.fitness is None


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_team_averages_episode_totals_per_side():
    blue = [SleepController("blue")]
    red = [load_fsm_adversary("red")]
    seeds = [101, 102, 103]
    expected = np.mean(
        [run_episode(TINY, s, blue, red).blue_total for s in seeds]
    )
    got = evaluate_team(blue, red, "blue", TINY, seeds)
    assert got == pytest.approx(float(expected))
    # the red side of the same matchup scores the mirror image
    assert evaluate_team(red, blue, "red", TINY, seeds) == pytest.approx(-got)


# ---------------------------------------------------------------------------
# whole runs


def test_small_es_run_shape_and_monotonicity():
    result = evolve_one_sided(
        side="blue",
        decoder=MatrixTeamDecoder("blue"),
        adversary=[load_fsm_adversary("red")],
        scenario=TINY,
        evo=SMALL_EVO,
        master_seed=77,
        label="ES-B",
    )
    records = result.trace.records
    assert len(records) == SMALL_EVO.trials * SMALL_EVO.iterations
    assert {r.side for r in records} == {"blue"}
    assert {r.algorithm for r in records} == {"ES-B"}
    for trial in range(SMALL_EVO.trials):
        curve = [r.best for r in records if r.trial == trial]
        assert curve == running_best(curve)  # elitism keeps the best alive
        used = [r.episodes_used for r in records if r.trial == trial]
        assert used[0] == SMALL_EVO.population_size * SMALL_EVO.repetitions
        for later in used[1:]:
            assert later <= (SMALL_EVO.population_size - 1) * SMALL_EVO.repetitions
    assert result.episodes_total == sum(r.episodes_used for r in records)
    assert list(result.best_per_trial) == ["blue"]
    assert len(result.best_per_trial["blue"]) == SMALL_EVO.trials
    assert result.best("blue").fitness == max(
        i.fitness for i in result.best_per_trial["blue"]
    )
    assert result.llm_report is None


def test_runs_are_reproducible_for_a_master_seed():
    def run():
        return evolve_one_sided(
            "blue", MatrixTeamDecoder("blue"), [SleepController("red")],
            TINY, SMALL_EVO, master_seed=9, label="ES-B",
        )

    assert run().trace.records == run().trace.records


def test_all_invalid_population_scores_the_flat_penalty():
    result = evolve_one_sided(
        "blue", NeverValid(), [SleepController("red")],
        TINY, SMALL_EVO, master_seed=5, label="GE-B",
    )
    for record in result.trace.records:
        assert record.best == -INVALID_PENALTY
        assert record.mean == -INVALID_PENALTY
        assert record.episodes_used == 0  # invalid teams never reach the simulator
    assert result.episodes_total == 0


class ValidThenInvalid:
    """Decodes its first `valid_decodes` genomes to a sleeping blue team,
    every later one as invalid."""

    genome_length = 4

    def __init__(self, valid_decodes):
        self.remaining = valid_decodes

    def random_genome(self, rng):
        return rng.random(4)

    def decode(self, genome):
        self.remaining -= 1
        if self.remaining >= 0:
            return Individual(genome, [SleepController("blue")], True)
        return Individual(genome, None, False)

    def mutate(self, genome, rng):
        return genome.copy()


def test_invalid_penalty_tracks_the_worst_fitness_seen_across_trials(monkeypatch):
    monkeypatch.setattr(evolution, "INVALID_RETRY_CAP", 0)
    evo = EvoConfig(population_size=2, iterations=1, trials=2, repetitions=1)
    adversary = [load_fsm_adversary("red")]
    result = evolve_one_sided(
        "blue", ValidThenInvalid(evo.population_size), adversary,
        TINY, evo, master_seed=8, label="GE-B",
    )
    trial_0, trial_1 = result.trace.records
    scored = [
        evaluate_team([SleepController("blue")], adversary, "blue", TINY,
                      episode_seeds(8, 0, 0, index, 0, 1))
        for index in range(evo.population_size)
    ]
    assert min(scored) < 0.0  # the penalty has a nonzero anchor to carry
    assert scored[-1] > min(scored)  # the worst is not merely the last seen
    assert (trial_0.best, trial_0.mean) == (max(scored), float(np.mean(scored)))
    # trial 1 is all invalid: scored against trial 0's worst, not reset to 0
    assert trial_1.best == trial_1.mean == min(scored) - INVALID_PENALTY
    assert trial_1.episodes_used == 0


class AlwaysFaults:
    """Decodes to a team whose first submission is illegal for its side."""

    genome_length = 4

    def random_genome(self, rng):
        return rng.random(4)

    def decode(self, genome):
        return Individual(genome, [FixedActionController("blue", "Impact")], True)

    def mutate(self, genome, rng):
        return genome.copy()


def test_simulation_faults_score_like_invalid_decodes():
    result = evolve_one_sided(
        "blue", AlwaysFaults(), [SleepController("red")],
        TINY, SMALL_EVO, master_seed=6, label="ES-B",
    )
    first = result.trace.records[0]
    assert first.best == -INVALID_PENALTY
    assert first.episodes_used == SMALL_EVO.population_size * SMALL_EVO.repetitions
    assert result.episodes_total > 0  # faulted episodes still count as spent


def test_llm_client_requires_a_single_shared_controller():
    with pytest.raises(ValueError):
        evolve_one_sided(
            "blue", RuleTeamDecoder("blue", mode="many"),
            [SleepController("red")], TINY,
            EvoConfig(population_size=2, iterations=1, trials=1,
                      controllers_per_team="many"),
            master_seed=1, label="GE-LLM-B", llm_client=object(),
        )
