"""End-to-end checks of the package's headline behavioural guarantees.

Each test verifies one numbered guarantee and records a PASS/FAIL line
through the shared ``criterion`` fixture; the collected lines print as
one block at the end of the run (see conftest).  The expensive shared
runs — two full-scale one-sided searches and a reduced three-experiment
comparison — are session-scoped fixtures so they execute only once.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

import cyberevo.evolution as evolution_module
from cyberevo.coevolution import coevolve
from cyberevo.controllers.base import SleepController
from cyberevo.controllers.classifier import state_priority
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.controllers.matrix import matrix_actions, normalize_row
from cyberevo.controllers.rules import RuleController
from cyberevo.episodes import run_episode
from cyberevo.evolution import (
    ELITE_COUNT,
    EvoConfig,
    RuleTeamDecoder,
    evaluate_team,
    evolve_one_sided,
    make_decoder,
)
from cyberevo.experiments import run_experiment, summarize_traces
from cyberevo.grammar.ast import ActionAssign, RuleAst
from cyberevo.grammar.parse import parse_grammar
from cyberevo.grammar.program import parse_program, render_program
from cyberevo.grammar.variants import Variant, load_grammar
from cyberevo.llm import ExpandingMockClient, LlmStats, ScriptedClient, llm_mutate
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.rewards import EVENT_KINDS, PHASES, REWARD_ZONES, RewardTable
from cyberevo.scenario.topology import TopologyBounds

from helpers import (
    EXTRA_OBSERVATIONS,
    fixed_target,
    has_target_section,
    mapping_result,
    observation_terminals,
    package_env,
)
from oracles import TOY_SPEC, all_genomes, oracle_map, spec_to_text
from test_fsm import BLUE_EXPECTED, RED_EXPECTED
from test_program import MONITOR_TEXT
from test_rewards import expected_value

DRAWS_PER_STATE = 100_000
FUZZ_PER_VARIANT = 10_000


# --- expensive shared runs -------------------------------------------------


@pytest.fixture(scope="session")
def ga_blue_full_run():
    """Full-scale GA blue search, spying on every fitness evaluation.

    The spy wraps the episode-evaluation function so the raw fitness of
    every individual ever scored is captured, not just the per-iteration
    aggregates that reach the trace.
    """
    recorded: list[float] = []
    original = evolution_module.evaluate_team

    def spy(*args, **kwargs):
        fitness = original(*args, **kwargs)
        recorded.append(fitness)
        return fitness

    evolution_module.evaluate_team = spy
    try:
        result = evolve_one_sided(
            "blue",
            make_decoder("GA", "blue"),
            [load_fsm_adversary("red")],
            ScenarioConfig(),
            EvoConfig(),
            master_seed=1000,
            label="GA-B",
        )
    finally:
        evolution_module.evaluate_team = original
    return result, recorded


@pytest.fixture(scope="session")
def es_blue_full_run():
    """Full-scale ES blue search against the fixed red adversary."""
    return evolve_one_sided(
        "blue",
        make_decoder("ES", "blue"),
        [load_fsm_adversary("red")],
        ScenarioConfig(),
        EvoConfig(),
        master_seed=1000,
        label="ES-B",
    )


@pytest.fixture(scope="session")
def comparison_artifacts(tmp_path_factory):
    """Reduced-scale coevolved and one-sided runs of the same family."""
    outdir = tmp_path_factory.mktemp("comparison")
    evo = EvoConfig(population_size=6, iterations=5, trials=2, repetitions=1)
    return [
        run_experiment(name, str(outdir), master_seed=1000, evo=evo).csv_path
        for name in ("GE-C", "GE-B", "GE-R")
    ]


# --- criteria --------------------------------------------------------------


def test_criterion_01_reward_schedule_matches_retyped_table(criterion):
    with criterion(
        1, "reward table equals the independently retyped schedule in all 63 cells"
    ):
        started = time.perf_counter()
        table = RewardTable.default()
        checked = 0
        for phase in PHASES:
            for zone in REWARD_ZONES:
                for kind in EVENT_KINDS:
                    assert table.lookup(phase, zone, kind) == expected_value(
                        phase, zone, kind
                    ), (phase, zone, kind)
                    checked += 1
        assert checked == 63
        assert time.perf_counter() - started < 1.0


def test_criterion_02_adversary_sampling_matches_table(criterion):
    with criterion(
        2,
        "fixed adversary sampling matches the published probabilities within "
        "3 sigma over 100k draws per state",
    ):
        started = time.perf_counter()
        for side, expected in (("red", RED_EXPECTED), ("blue", BLUE_EXPECTED)):
            controller = load_fsm_adversary(side)
            actions = matrix_actions(side)
            rng = np.random.default_rng(20260823)
            for state in state_priority(side):
                counts = Counter(
                    controller.sample(state, rng) for _ in range(DRAWS_PER_STATE)
                )
                assert sum(counts.values()) == DRAWS_PER_STATE
                assert set(counts) <= set(actions)
                for action in actions:
                    p = expected.get((state, action), 0.0)
                    observed = counts.get(action, 0)
                    if p == 0.0:
                        assert observed == 0, (side, state, action, observed)
                    else:
                        sigma = (DRAWS_PER_STATE * p * (1.0 - p)) ** 0.5
                        assert abs(observed - DRAWS_PER_STATE * p) <= 3.0 * sigma, (
                            side,
                            state,
                            action,
                            observed,
                        )
        assert time.perf_counter() - started < 10.0


def test_criterion_03_mapping_agrees_with_bruteforce_oracle(criterion):
    with criterion(
        3,
        "codon-to-text mapping agrees with the brute-force oracle on all "
        "4681 toy genomes up to length 4",
    ):
        started = time.perf_counter()
        grammar = parse_grammar(spec_to_text(TOY_SPEC))
        total = 0
        for genome in all_genomes(4, 8):
            reference = oracle_map(genome, TOY_SPEC, "s")
            got = mapping_result(list(genome), grammar)
            assert got.invalid == reference.invalid, genome
            assert got.phenotype == reference.phenotype, genome
            assert got.used_codons == reference.used_codons, genome
            assert got.wraps == reference.wraps, genome
            total += 1
        assert total == 4681
        assert time.perf_counter() - started < 10.0


def test_criterion_04_row_normalization_properties(criterion):
    with criterion(
        4,
        "row normalization: unit sums within 1e-9, argmax invariant under "
        "positive scaling, uniform fallback, idempotent over 10k random rows",
    ):
        started = time.perf_counter()
        rng = np.random.default_rng(41)
        for _ in range(10_000):
            width = int(rng.integers(2, 10))
            row = rng.random(width)
            out = normalize_row(row)
            assert abs(float(out.sum()) - 1.0) <= 1e-9
            assert int(np.argmax(out)) == int(np.argmax(row))
            scaled = normalize_row(row * float(rng.uniform(0.1, 100.0)))
            assert int(np.argmax(scaled)) == int(np.argmax(out))
            again = normalize_row(out)
            assert np.allclose(again, out, rtol=0.0, atol=1e-12)
        for width in range(2, 10):
            uniform = normalize_row(np.zeros(width))
            assert (uniform == 1.0 / width).all()
        masked = normalize_row([0.5, None, 0.25, None])
        assert masked[1] == 0.0 and masked[3] == 0.0
        assert abs(float(masked.sum()) - 1.0) <= 1e-9
        assert masked[0] == pytest.approx(2.0 / 3.0)
        assert time.perf_counter() - started < 5.0


def test_criterion_05_coevolution_episode_accounting_and_mirror(criterion):
    with criterion(
        5,
        "coevolution plays exactly population^2 x repetitions episodes per "
        "iteration and the sides' summed fitnesses mirror within 1e-9",
    ):
        started = time.perf_counter()
        evo = EvoConfig(population_size=10, iterations=5, trials=1, repetitions=2)
        result = coevolve(
            make_decoder("ES", "red"),
            make_decoder("ES", "blue"),
            ScenarioConfig(),
            evo,
            master_seed=77,
            label="ES-C",
        )
        records = result.trace.records
        assert len(records) == 2 * evo.iterations
        per_iteration = evo.population_size**2 * evo.repetitions
        for iteration in range(evo.iterations):
            red, blue = [r for r in records if r.iteration == iteration]
            assert (red.side, blue.side) == ("red", "blue")
            assert red.episodes_used == per_iteration
            assert blue.episodes_used == per_iteration
            red_sum = evo.population_size * red.mean
            blue_sum = evo.population_size * blue.mean
            assert abs(red_sum + blue_sum) <= 1e-9
        assert result.episodes_total == evo.iterations * per_iteration
        assert time.perf_counter() - started < 120.0


def _assert_monotone_per_trial(trace, iterations: int) -> None:
    for trial in trace.trials():
        bests = [r.best for r in trace.filter(trial=trial).records]
        assert len(bests) == iterations
        for earlier, later in zip(bests, bests[1:]):
            assert later >= earlier, (trial, bests)


def test_criterion_06_one_sided_best_is_monotone_at_full_scale(
    criterion, ga_blue_full_run, es_blue_full_run
):
    ga_result, _ = ga_blue_full_run
    with criterion(
        6,
        "full-scale one-sided searches keep per-trial best fitness "
        "nondecreasing across all 20 iterations in all 6 trials (GA and ES)",
    ):
        defaults = EvoConfig()
        for result in (ga_result, es_blue_full_run):
            assert len(result.trace.records) == defaults.trials * defaults.iterations
            _assert_monotone_per_trial(result.trace, defaults.iterations)


def test_criterion_07_mutual_sleep_scores_exactly_zero(criterion):
    with criterion(
        7, "all-sleep vs all-sleep full episodes score exactly zero for both sides"
    ):
        for seed in (0, 1, 2026):
            result = run_episode(
                ScenarioConfig(),
                seed,
                [SleepController("blue")],
                [SleepController("red")],
            )
            assert len(result.blue_rewards) == ScenarioConfig().steps
            assert result.blue_total == 0.0
            red_score = evaluate_team(
                [SleepController("red")], [SleepController("blue")], "red", ScenarioConfig(), [seed]
            )
            assert red_score == 0.0
            assert all(value == 0.0 for value in result.blue_rewards)


def test_criterion_08_blue_fitness_never_positive(criterion, ga_blue_full_run):
    result, recorded = ga_blue_full_run
    with criterion(
        8,
        "every blue fitness ever evaluated is <= 0, and a monitor-only blue "
        "scores exactly 0 against a sleeping red",
    ):
        defaults = EvoConfig()
        evaluations_per_trial = defaults.population_size + (
            defaults.iterations - 1
        ) * (defaults.population_size - ELITE_COUNT)
        assert len(recorded) == defaults.trials * evaluations_per_trial
        assert all(value is not None and value <= 0.0 for value in recorded)
        assert result.best("blue").fitness <= 0.0

        monitor_blue = RuleController(
            RuleAst(action_statements=(ActionAssign("Monitor"),)), "blue"
        )
        outcome = run_episode(
            ScenarioConfig(), 99, [monitor_blue], [SleepController("red")]
        )
        assert outcome.blue_total == 0.0


def test_criterion_09_variant_grammars_are_safe_to_fuzz(criterion):
    with criterion(
        9,
        "grammar variants have the advertised structure; 10k fuzzed decodes "
        "per variant are invalid-or-legal and sampled programs run clean",
    ):
        started = time.perf_counter()
        for side in ("blue", "red"):
            base = load_grammar(side)
            widened = load_grammar(side, Variant.OE)
            assert set(observation_terminals(widened)) == set(
                observation_terminals(base)
            ) | set(EXTRA_OBSERVATIONS)
            assert len(observation_terminals(widened)) == len(
                observation_terminals(base)
            ) + len(EXTRA_OBSERVATIONS)
            for variant, heuristic in (
                (Variant.TR, "random_target"),
                (Variant.TN, "last_target"),
                (Variant.TO, "first_target"),
            ):
                fixed = load_grammar(side, variant)
                assert fixed_target(fixed) == heuristic
                assert not has_target_section(fixed)
                assert "target_heuristic" not in fixed.rules
            choosing = load_grammar(side, Variant.TC)
            assert has_target_section(choosing)
            assert len(choosing.rules["target_heuristic"]) == 3

        rng = np.random.default_rng(90)
        scenario = ScenarioConfig()
        for variant in (Variant.TR, Variant.TN, Variant.TO, Variant.TC, Variant.OE):
            for side in ("blue", "red"):
                decoder = RuleTeamDecoder(side, variant)
                genomes = rng.integers(
                    0, 256, size=(FUZZ_PER_VARIANT // 2, decoder.genome_length)
                )
                sampled = []
                valid = 0
                for genome in genomes:
                    individual = decoder.decode(genome)
                    if not individual.valid:
                        assert individual.team is None
                        continue
                    valid += 1
                    assert all(
                        isinstance(c, RuleController) and c.side == side
                        for c in individual.team
                    )
                    if len(sampled) < 2:
                        sampled.append(individual.team)
                assert valid > 0, (variant, side)
                for index, team in enumerate(sampled):
                    if side == "blue":
                        run_episode(scenario, index, team, [SleepController("red")])
                    else:
                        run_episode(scenario, index, [SleepController("blue")], team)
        assert time.perf_counter() - started < 120.0


def test_criterion_10_llm_mutation_accounting_and_degradation(criterion):
    with criterion(
        10,
        "mock LLM mutation conserves call accounting, accepted edits are "
        "parse-stable, and unusable replies degrade to random replacement",
    ):
        started = time.perf_counter()
        decoder = RuleTeamDecoder("blue")
        grammar = decoder.grammar
        stats = LlmStats()
        client = ExpandingMockClient()
        program = MONITOR_TEXT
        for _ in range(5):
            outcome = llm_mutate(client, program, grammar, stats)
            assert outcome.ok
            reparsed = render_program(parse_program(outcome.program, grammar))
            assert reparsed == outcome.program
            program = outcome.program
        assert (stats.calls, stats.successes) == (5, 5)
        assert stats.parse_failures == 0 and stats.transport_failures == 0
        assert (
            stats.successes + stats.parse_failures + stats.transport_failures
            == stats.calls
        )

        tiny = ScenarioConfig(
            steps=6,
            phase_boundaries=(2, 4),
            bounds=TopologyBounds(servers=(1, 1), user_hosts=(3, 3), services=(1, 1)),
        )
        result = evolve_one_sided(
            "blue",
            make_decoder("GE-LLM", "blue"),
            [load_fsm_adversary("red")],
            tiny,
            EvoConfig(population_size=4, iterations=5, trials=1, repetitions=1),
            master_seed=5,
            label="GE-LLM-B",
            llm_client=ScriptedClient(["no code here"]),
        )
        assert len(result.trace.records) == 5
        report = result.llm_report
        assert report["calls"] > 0
        assert report["successes"] == 0
        assert report["parse_failures"] + report["transport_failures"] == report["calls"]
        assert report["success_rate"] == 0.0
        assert time.perf_counter() - started < 60.0


def test_criterion_11_cli_runs_are_byte_reproducible(criterion, tmp_path):
    with criterion(
        11, "two identical CLI coevolution runs write byte-identical trace CSVs"
    ):
        started = time.perf_counter()
        env = package_env()
        contents = []
        for name in ("first", "second"):
            outdir = tmp_path / name
            command = [
                sys.executable,
                "-m",
                "cyberevo",
                "run",
                "GA-C",
                "--seed",
                "42",
                "--trials",
                "1",
                "--iterations",
                "3",
                "--population",
                "4",
                "--repetitions",
                "1",
                "--output-dir",
                str(outdir),
            ]
            proc = subprocess.run(
                command, capture_output=True, text=True, cwd=str(tmp_path), env=env
            )
            assert proc.returncode == 0, proc.stderr
            contents.append((outdir / "GA-C.csv").read_bytes())
        assert contents[0] == contents[1]
        assert contents[0].decode().count("\n") == 1 + 2 * 3
        assert time.perf_counter() - started < 300.0


def test_criterion_12_dampening_comparison_is_reported(
    criterion, report, comparison_artifacts
):
    with criterion(
        12,
        "coevolved vs one-sided peak comparison is produced for both sides "
        "(direction observed, not asserted)",
    ):
        summary = summarize_traces(comparison_artifacts)
        lines = [
            line
            for line in summary.splitlines()
            if line.startswith("dampening GE [")
        ]
        assert len(lines) == 2
        assert {line.split("[")[1].split("]")[0] for line in lines} == {"blue", "red"}
        for line in lines:
            assert ("stays below" in line) or ("exceeds" in line)
    for line in lines:
        report(12, f"ACCEPTANCE 12 NOTE — {line}")
