"""The generational loop, and one-sided training against a fixed adversary.

One loop with elitism and tournament selection breeds every population;
one-sided runs and coevolution (see ``coevolution``) differ only in how
they assign fitness.  Three solution representations share it:

- continuous matrix genomes ([0, 1] genes, Gaussian mutation),
- discrete matrix genomes (codes 0..3, redraw mutation),
- integer codon genomes decoded through a controller grammar (redraw
  mutation, or LLM-driven program mutation when a client is supplied).

A decoder's ``decode`` hands back the `Individual` itself; a genome the
grammar cannot map gives one with no team, flagged invalid.  An LLM
child keeps its parent's genome but takes its single controller from
the edited program, so it is marked detached and breeds by further
program edits only.

Invalid decodes and failed LLM mutations are replaced by fresh random
individuals; if a fresh valid individual cannot be found within the
retry cap, the individual is kept invalid and scored below the worst
fitness seen so far.  Simulation faults during evaluation are scored
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .controllers.matrix import decode_matrix_team, team_genome_length
from .controllers.rules import RuleController
from .episodes import Team, run_episode
from .errors import ControllerError, SimulationFault
from .grammar.mapping import build_ast, map_genome
from .grammar.program import render_program
from .grammar.variants import Variant, load_grammar
from .llm import LlmStats, llm_mutate
from .scenario.config import ScenarioConfig
from .scenario.engine import team_size
from .seeds import STREAM_EPISODE, STREAM_VARIATION, derive_seed, spawn_generator
from .traces import FitnessTrace

INVALID_PENALTY = 1000.0
# The variation settings of the experiment setup.  Each generation keeps
# `ELITE_COUNT` elites and breeds the rest from `TOURNAMENT_SIZE`-way
# tournaments; a pair of parents crosses with `CROSSOVER_P`, each gene
# mutates with `MUTATION_P` (continuous genes by Gaussian noise of
# standard deviation `ES_SIGMA`), and an invalid decode is redrawn up to
# `INVALID_RETRY_CAP` times.
ELITE_COUNT = 1
TOURNAMENT_SIZE = 2
CROSSOVER_P = 0.5
MUTATION_P = 0.5
ES_SIGMA = 0.1
INVALID_RETRY_CAP = 100
CODON_MAX = 255
GE_GENOME_LENGTH = 1000


@dataclass
class EvoConfig:
    """The run's size: what a settings file or the command line can set
    (defaults follow the experiment setup).  The variation settings are
    the module constants above."""

    population_size: int = 10
    iterations: int = 20
    trials: int = 6
    repetitions: int = 2
    controllers_per_team: str = "one"

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        for name in ("iterations", "trials", "repetitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        try:
            team_size("red", self.controllers_per_team)
        except ControllerError as exc:
            raise ValueError(str(exc)) from None


@dataclass
class Individual:
    """One candidate solution: a genome and its decoded controller team."""

    genome: np.ndarray
    team: Optional[Team]
    valid: bool
    fitness: Optional[float] = None
    program: Optional[str] = None
    detached: bool = False  # program was edited directly; genome is stale


class MatrixTeamDecoder:
    """Genomes are flat matrix cells; every in-range genome is valid."""

    def __init__(self, side: str, mode: str = "one", encoding: str = "continuous"):
        if encoding not in ("continuous", "discrete4"):
            raise ControllerError(f"unknown matrix encoding {encoding!r}")
        self.side = side
        self.mode = mode
        self.encoding = encoding
        self.genome_length = team_genome_length(side, mode)

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        if self.encoding == "continuous":
            return rng.random(self.genome_length)
        return rng.integers(0, 4, size=self.genome_length)

    def decode(self, genome: np.ndarray) -> Individual:
        team = decode_matrix_team(genome, self.side, self.mode, self.encoding)
        return Individual(genome, team, True)

    def mutate(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mask = rng.random(genome.shape[0]) < MUTATION_P
        child = genome.copy()
        if self.encoding == "continuous":
            noise = rng.normal(0.0, ES_SIGMA, size=genome.shape[0])
            child[mask] = np.clip(child[mask] + noise[mask], 0.0, 1.0)
        else:
            child[mask] = rng.integers(0, 4, size=int(mask.sum()))
        return child


class RuleTeamDecoder:
    """Codon genomes decoded through a controller grammar."""

    def __init__(self, side: str, variant: Variant = Variant.BASELINE, mode: str = "one"):
        self.side = side
        self.variant = Variant(variant)
        self.mode = mode
        self.grammar = load_grammar(side, self.variant)
        self.controllers = team_size(side, mode)
        self.genome_length = GE_GENOME_LENGTH * self.controllers

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, CODON_MAX + 1, size=self.genome_length)

    def decode(self, genome: np.ndarray) -> Individual:
        controllers = []
        programs = []
        for c in range(self.controllers):
            chunk = genome[c * GE_GENOME_LENGTH:(c + 1) * GE_GENOME_LENGTH]
            tree = map_genome(chunk, self.grammar)
            if tree is None:
                return Individual(genome, None, False)
            controllers.append(RuleController(build_ast(tree, self.grammar), self.side))
            programs.append(render_program(tree))
        return Individual(genome, controllers, True, program="\n".join(programs))

    def mutate(self, genome: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mask = rng.random(genome.shape[0]) < MUTATION_P
        child = genome.copy()
        child[mask] = rng.integers(0, CODON_MAX + 1, size=int(mask.sum()))
        return child


def make_decoder(
    algorithm: str,
    side: str,
    controllers_per_team: str = "one",
    variant: Variant = Variant.BASELINE,
):
    """Map an algorithm family to its solution representation."""
    if algorithm == "ES":
        return MatrixTeamDecoder(side, controllers_per_team, "continuous")
    if algorithm == "GA":
        return MatrixTeamDecoder(side, controllers_per_team, "discrete4")
    if algorithm in ("GE", "GE-LLM"):
        return RuleTeamDecoder(side, variant, controllers_per_team)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def tournament_select(
    population: Sequence[Individual], rng: np.random.Generator
) -> Individual:
    """`TOURNAMENT_SIZE`-way tournament with replacement; ties keep the
    earliest draw."""
    best: Optional[Individual] = None
    for _ in range(TOURNAMENT_SIZE):
        candidate = population[int(rng.integers(len(population)))]
        if best is None or candidate.fitness > best.fitness:
            best = candidate
    return best


def one_point_crossover(
    genome_a: np.ndarray, genome_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Swap tails at a cut point strictly inside both genomes."""
    if genome_a.shape[0] != genome_b.shape[0]:
        raise ValueError("crossover needs genomes of equal length")
    cut = int(rng.integers(1, genome_a.shape[0]))
    child_a = np.concatenate([genome_a[:cut], genome_b[cut:]])
    child_b = np.concatenate([genome_b[:cut], genome_a[cut:]])
    return child_a, child_b


def fresh_individual(decoder, rng: np.random.Generator) -> Individual:
    """Random individual, retrying invalid grammar decodes up to
    `INVALID_RETRY_CAP` times."""
    for _ in range(1 + INVALID_RETRY_CAP):
        individual = decoder.decode(decoder.random_genome(rng))
        if individual.valid:
            break
    return individual


def evaluate_team(
    team: Team,
    adversary: Team,
    side: str,
    config: ScenarioConfig,
    seeds: Sequence[int],
) -> float:
    """Mean episode reward of `team` (on its own side) across seeds."""
    total = 0.0
    for seed in seeds:
        if side == "blue":
            result = run_episode(config, seed, team, adversary)
            total += result.blue_total
        else:
            result = run_episode(config, seed, adversary, team)
            total -= result.blue_total
    return total / len(seeds)


def episode_seeds(
    master_seed: int, trial: int, iteration: int, i: int, j: int, repetitions: int
) -> list[int]:
    """Deterministic seeds for each repeated episode of one evaluation."""
    return [
        derive_seed(master_seed, trial, iteration, i, j, rep, STREAM_EPISODE)
        for rep in range(repetitions)
    ]


@dataclass
class EvolutionResult:
    """Everything a finished run produced, one champion per trial per side."""

    trace: FitnessTrace
    best_per_trial: dict[str, list[Individual]]
    episodes_total: int
    llm_report: Optional[dict] = None

    def best(self, side: str) -> Individual:
        return max(self.best_per_trial[side], key=lambda ind: ind.fitness)


def _make_children(
    population: list[Individual],
    decoder,
    rng: np.random.Generator,
    needed: int,
    llm_client,
    llm_stats,
) -> list[Individual]:
    children: list[Individual] = []
    while len(children) < needed:
        parent_a = tournament_select(population, rng)
        parent_b = tournament_select(population, rng)
        detached = parent_a.detached or parent_b.detached
        crossed = not detached and rng.random() < CROSSOVER_P
        if crossed:
            genomes = one_point_crossover(parent_a.genome, parent_b.genome, rng)
        else:
            genomes = (parent_a.genome.copy(), parent_b.genome.copy())
        for parent, genome in zip((parent_a, parent_b), genomes):
            if len(children) >= needed:
                break
            if llm_client is not None:
                child = _llm_child(
                    parent, genome, crossed, decoder, llm_client, llm_stats, rng
                )
            else:
                child = decoder.decode(decoder.mutate(genome, rng))
                if not child.valid:
                    child = fresh_individual(decoder, rng)
            children.append(child)
    return children


def _llm_child(
    parent: Individual,
    genome: np.ndarray,
    crossed: bool,
    decoder,
    client,
    stats,
    rng: np.random.Generator,
) -> Individual:
    """Mutate by editing the parent's program text through the client.

    A valid parent whose genome was not crossed over already holds the
    program (decoded or, when detached, edited), so only a crossed-over
    genome or an invalid parent's genome is decoded here.
    """
    if parent.valid and not crossed:
        program = parent.program
    else:
        decoded = decoder.decode(genome)
        if not decoded.valid:
            return fresh_individual(decoder, rng)
        program = decoded.program
    mutation = llm_mutate(client, program, decoder.grammar, stats)
    if not mutation.ok:
        # Failed mutations are replaced the same way invalid decodes are:
        # by a fresh random individual, so a failing backend cannot stall
        # the run.
        return fresh_individual(decoder, rng)
    return Individual(
        genome=genome,
        team=[RuleController(mutation.ast, decoder.side)],
        valid=True,
        program=mutation.program,
        detached=True,
    )


def _generational_loop(
    decoders: dict,
    assign_fitness,
    evo: EvoConfig,
    master_seed: int,
    label: str,
    llm_client,
) -> EvolutionResult:
    """Breed one population per side of `decoders` through every trial.

    `assign_fitness(populations, trial, iteration)` scores the
    populations (a dict keyed like `decoders`) and returns the number of
    episodes it played; every side's trace record carries that count.
    Elites survive as the same objects, fitness included.
    """
    if llm_client is not None and evo.controllers_per_team != "one":
        raise ValueError("LLM mutation edits a single shared controller program")
    llm_stats = LlmStats() if llm_client is not None else None
    trace = FitnessTrace()
    best_per_trial: dict[str, list[Individual]] = {side: [] for side in decoders}
    episodes_total = 0
    # A lone population draws from (master, STREAM_VARIATION, trial);
    # several populations each append their side index to that key.
    side_keys = [()] if len(decoders) == 1 else [(k,) for k in range(len(decoders))]
    for trial in range(evo.trials):
        rngs = {
            side: spawn_generator(master_seed, STREAM_VARIATION, trial, *key)
            for side, key in zip(decoders, side_keys)
        }
        populations = {
            side: [fresh_individual(decoder, rngs[side]) for _ in range(evo.population_size)]
            for side, decoder in decoders.items()
        }
        for iteration in range(evo.iterations):
            episodes = assign_fitness(populations, trial, iteration)
            episodes_total += episodes
            for side, population in populations.items():
                fits = [ind.fitness for ind in population]
                trace.append(
                    trial, iteration, side, label,
                    max(fits), float(np.mean(fits)), episodes,
                )
            if iteration == evo.iterations - 1:
                break
            for side, population in populations.items():
                elites = sorted(
                    population, key=lambda ind: ind.fitness, reverse=True
                )[:ELITE_COUNT]
                children = _make_children(
                    population, decoders[side], rngs[side],
                    evo.population_size - len(elites), llm_client, llm_stats,
                )
                populations[side] = elites + children
        for side, population in populations.items():
            best_per_trial[side].append(max(population, key=lambda ind: ind.fitness))
    report = llm_stats.summary() if llm_stats is not None else None
    return EvolutionResult(
        trace=trace,
        best_per_trial=best_per_trial,
        episodes_total=episodes_total,
        llm_report=report,
    )


def evolve_one_sided(
    side: str,
    decoder,
    adversary: Team,
    scenario: ScenarioConfig,
    evo: EvoConfig,
    master_seed: int,
    label: str,
    llm_client=None,
) -> EvolutionResult:
    """Evolve one side against a fixed adversary team.

    Writes one trace record per (trial, iteration); `best` per record is
    the current population's best cached fitness, which is monotone
    within a trial because the elite keeps its exact fitness.  Only
    unscored individuals play; an invalid one, or one whose episodes
    raise a `SimulationFault`, scores the worst fitness seen so far in
    the run minus `INVALID_PENALTY`.
    """
    worst_seen = 0.0

    def assign_fitness(populations, trial, iteration) -> int:
        nonlocal worst_seen
        episodes = 0
        for index, individual in enumerate(populations[side]):
            if individual.fitness is not None:
                continue
            fitness = None
            if individual.valid:
                seeds = episode_seeds(
                    master_seed, trial, iteration, index, 0, evo.repetitions
                )
                episodes += len(seeds)
                try:
                    fitness = evaluate_team(
                        individual.team, adversary, side, scenario, seeds
                    )
                except SimulationFault:
                    pass
                else:
                    worst_seen = min(worst_seen, fitness)
            individual.fitness = (
                worst_seen - INVALID_PENALTY if fitness is None else fitness
            )
        return episodes

    return _generational_loop(
        {side: decoder}, assign_fitness, evo, master_seed, label, llm_client
    )
