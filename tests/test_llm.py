"""Language-model program mutation: prompts, clients, accounting."""

from __future__ import annotations

import sys
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

import cyberevo.llm as llm_module
from cyberevo import evolution
from cyberevo.controllers.base import SleepController
from cyberevo.evolution import EvoConfig, RuleTeamDecoder, evolve_one_sided, fresh_individual
from cyberevo.grammar.model import Grammar
from cyberevo.grammar.program import parse_program, render_program
from cyberevo.grammar.variants import Variant, load_grammar
from cyberevo.llm import (
    GRAMMAR_HEADER,
    INSTRUCTIONS,
    PERSONA,
    PROGRAM_HEADER,
    CompletionResult,
    EchoClient,
    ExpandingMockClient,
    HttpClient,
    LlmStats,
    ScriptedClient,
    build_prompt,
    extract_code,
    format_stats,
    llm_mutate,
)
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.topology import TopologyBounds

GRAMMAR = load_grammar("blue")

MONITOR_TEXT = (
    "def select_action_and_target(observation, name):\n"
    "    #Select action\n"
    "    action = Monitor\n"
    "    target_heuristic = random_target\n"
    "    return action, target_heuristic\n"
)

TINY = ScenarioConfig(
    steps=6,
    phase_boundaries=(2, 4),
    bounds=TopologyBounds(servers=(1, 1), user_hosts=(3, 3), services=(1, 1)),
)


# ---------------------------------------------------------------------------
# prompt assembly and code extraction


def test_prompt_contains_all_sections_in_order():
    prompt = build_prompt(GRAMMAR, MONITOR_TEXT)
    assert prompt.startswith(PERSONA)
    i_grammar = prompt.index(GRAMMAR_HEADER)
    i_program = prompt.index(PROGRAM_HEADER)
    i_instructions = prompt.index(INSTRUCTIONS)
    assert 0 < i_grammar < i_program < i_instructions
    assert GRAMMAR.source.strip() in prompt
    assert "action = Monitor" in prompt


def test_empty_prompt_sections_are_rejected():
    with pytest.raises(ValueError):
        build_prompt(Grammar(rules={}, start="s"), MONITOR_TEXT)
    with pytest.raises(ValueError):
        build_prompt(GRAMMAR, "   ")


def test_extract_code_prefers_the_last_fenced_block():
    text = "Sure!\n```python\nfirst\n```\nwait, better:\n```\nsecond\n```\n"
    assert extract_code(text) == "second"
    assert extract_code("no fences here") == "no fences here"
    assert extract_code("```\nonly\n```") == "only"


# ---------------------------------------------------------------------------
# clients


def test_echo_client_is_the_identity_mutation():
    stats = LlmStats()
    outcome = llm_mutate(EchoClient(), MONITOR_TEXT, GRAMMAR, stats)
    assert outcome.ok
    assert outcome.program == MONITOR_TEXT
    assert outcome.ast is not None
    assert (stats.calls, stats.successes) == (1, 1)


def test_scripted_client_cycles_its_responses():
    client = ScriptedClient(["a", "b"])
    assert [client.complete("x").text for _ in range(5)] == ["a", "b", "a", "b", "a"]
    with pytest.raises(ValueError):
        ScriptedClient([])


def test_expanding_mock_appends_one_legal_assignment():
    client = ExpandingMockClient(seed=1)
    stats = LlmStats()
    outcome = llm_mutate(client, MONITOR_TEXT, GRAMMAR, stats)
    assert outcome.ok
    assert outcome.program != MONITOR_TEXT
    assert len(outcome.ast.action_statements) == 2
    # the result still parses, so mutation can be applied repeatedly
    again = llm_mutate(client, outcome.program, GRAMMAR, stats)
    assert again.ok
    assert len(again.ast.action_statements) == 3


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("side", ["blue", "red"])
def test_expanding_mock_reads_the_grammar_from_the_prompt(side, variant):
    decoder = RuleTeamDecoder(side, variant)
    seeded = fresh_individual(decoder, np.random.default_rng(12))
    assert seeded.valid
    client = ExpandingMockClient()
    outcome = llm_mutate(client, seeded.program, decoder.grammar, LlmStats())
    assert outcome.ok
    appended = outcome.ast.action_statements[-1]
    assert appended.action in decoder.grammar.action_terminals()
    reparsed = parse_program(outcome.program, decoder.grammar)
    assert render_program(reparsed) == outcome.program
    with pytest.raises(ValueError):
        client.complete("a prompt without any grammar section")


def test_expanding_mock_parses_each_grammar_section_once(monkeypatch):
    import cyberevo.grammar.parse as parse_module

    sections = []
    real_parse = parse_module.parse_grammar
    monkeypatch.setattr(
        parse_module, "parse_grammar", lambda text: sections.append(text) or real_parse(text)
    )
    red_grammar = load_grammar("red")
    red_text = MONITOR_TEXT.replace("Monitor", "Impact")
    prompts = [build_prompt(GRAMMAR, MONITOR_TEXT), build_prompt(red_grammar, red_text)] * 5
    reader = ExpandingMockClient(seed=4)
    for i, prompt in enumerate(prompts):
        appended = reader.complete(prompt).text.splitlines()[-4].split(" = ")[1]
        assert appended in (GRAMMAR if i % 2 == 0 else red_grammar).action_terminals()
    assert len(sections) == 2


# ---------------------------------------------------------------------------
# llm_mutate outcomes and stats


def test_ungrammatical_reply_counts_as_parse_failure():
    stats = LlmStats()
    outcome = llm_mutate(
        ScriptedClient(["```python\nimport os\n```"]),
        MONITOR_TEXT, GRAMMAR, stats,
    )
    assert not outcome.ok
    assert outcome.program is None and outcome.ast is None
    assert (stats.calls, stats.successes, stats.parse_failures) == (1, 0, 1)
    assert outcome.error


def test_transport_error_counts_separately():
    class Broken:
        def complete(self, prompt):
            raise ConnectionError("socket closed")

    stats = LlmStats()
    outcome = llm_mutate(Broken(), MONITOR_TEXT, GRAMMAR, stats)
    assert not outcome.ok
    assert (stats.calls, stats.transport_failures, stats.parse_failures) == (1, 1, 0)
    assert "socket closed" in outcome.error


class FakeReply:
    """A ``requests`` response whose JSON body is ``body``."""

    def __init__(self, body):
        self.body = body

    def raise_for_status(self):
        pass

    def json(self):
        return self.body


@pytest.mark.parametrize("message, usage", [
    ({"content": None}, {"total_tokens": 12}),
    ({"content": ["Monitor"]}, {}),
    ({"content": f"```python\n{MONITOR_TEXT}\n```"}, {"total_tokens": "many"}),
    ({"content": f"```python\n{MONITOR_TEXT}\n```"}, {"total_tokens": 1.5}),
    ({"content": f"```python\n{MONITOR_TEXT}\n```"}, {"total_tokens": True}),
    ({"content": f"```python\n{MONITOR_TEXT}\n```"}, {"total_tokens": -500}),
], ids=str)
def test_a_malformed_http_reply_counts_as_a_transport_failure(monkeypatch, message, usage):
    import requests

    body = {"choices": [{"message": message}], "usage": usage}
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: FakeReply(body))
    client = HttpClient("http://localhost:1/v1", "m")
    with pytest.raises(ValueError):
        client.complete("prompt")
    stats = LlmStats()
    outcome = llm_mutate(client, MONITOR_TEXT, GRAMMAR, stats)
    assert not outcome.ok and outcome.error
    assert (stats.calls, stats.transport_failures, stats.parse_failures) == (1, 1, 0)
    assert stats.tokens_total == 0


def test_a_well_formed_http_reply_is_read(monkeypatch):
    import requests

    sent = {}

    def post(url, json, headers, timeout):
        sent.update(url=url, json=json, headers=headers, timeout=timeout)
        reply = f"```python\n{MONITOR_TEXT}\n```"
        return FakeReply({"choices": [{"message": {"content": reply}}], "usage": {"total_tokens": 40}})

    monkeypatch.setattr(requests, "post", post)
    stats = LlmStats()
    client = HttpClient("http://localhost:1/v1", "m", api_key="k", timeout=2.0)
    assert llm_mutate(client, MONITOR_TEXT, GRAMMAR, stats).ok
    assert (stats.successes, stats.tokens_total) == (1, 40)
    assert sent["headers"]["Authorization"] == "Bearer k"
    assert (sent["url"], sent["json"]["model"], sent["timeout"]) == ("http://localhost:1/v1", "m", 2.0)


def test_validity_accounting_conserves_calls():
    responses = [
        f"```python\n{MONITOR_TEXT}\n```",  # valid
        "gibberish",  # parse failure
        f"```python\n{MONITOR_TEXT.replace('Monitor', 'Analyse')}\n```",  # valid
        "",  # parse failure (empty program)
    ]
    stats = LlmStats()
    client = ScriptedClient(responses)
    for _ in responses:
        llm_mutate(client, MONITOR_TEXT, GRAMMAR, stats)
    assert stats.calls == 4
    assert stats.successes + stats.parse_failures + stats.transport_failures == stats.calls
    assert (stats.successes, stats.parse_failures) == (2, 2)


def test_token_fallback_counts_whitespace_words():
    stats = LlmStats()
    llm_mutate(EchoClient(), MONITOR_TEXT, GRAMMAR, stats)
    prompt = build_prompt(GRAMMAR, MONITOR_TEXT)
    reply = EchoClient().complete(prompt).text
    assert stats.tokens_total == len(prompt.split()) + len(reply.split())


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("side", ["blue", "red"])
def test_token_fallback_counts_the_prompt_without_splitting_it(side, variant):
    """The fallback's prompt count, cached per grammar source, is the
    whitespace split of the whole prompt for every packaged grammar."""
    decoder = RuleTeamDecoder(side, variant)
    rng = np.random.default_rng(7)
    programs = [fresh_individual(decoder, rng).program for _ in range(4)]
    programs += [MONITOR_TEXT, "x", "  a\tb\n\n  c  \n", "```python\nx\n```"]
    for program in programs:
        expected = len(build_prompt(decoder.grammar, program).split())
        counted = llm_module._fixed_prompt_tokens(decoder.grammar.source) + len(program.split())
        assert counted == expected, program


def test_reported_token_counts_win_over_the_fallback(monkeypatch):
    class Counting:
        def complete(self, prompt):
            return CompletionResult(text=f"```python\n{MONITOR_TEXT}\n```", tokens=123)

    # The operator's own clock times every call, whatever the client.
    clock = SimpleNamespace(perf_counter=iter([10.0, 10.5]).__next__)
    monkeypatch.setattr(llm_module, "time", clock)
    stats = LlmStats()
    llm_mutate(Counting(), MONITOR_TEXT, GRAMMAR, stats)
    assert stats.tokens_total == 123
    assert stats.latency_total == pytest.approx(0.5)
    assert stats.summary()["mean_latency"] == pytest.approx(0.5)


def test_accepted_mutations_are_render_parse_fixpoints():
    client = ExpandingMockClient(seed=2)
    stats = LlmStats()
    program = MONITOR_TEXT
    for _ in range(5):
        outcome = llm_mutate(client, program, GRAMMAR, stats)
        assert outcome.ok
        reparsed = parse_program(outcome.program, GRAMMAR)
        assert render_program(reparsed) == outcome.program
        program = outcome.program
    assert stats.successes == 5


def program_with(body: str) -> str:
    return MONITOR_TEXT.replace("    action = Monitor\n", body)


def test_a_long_reply_is_accepted():
    body = "    action = Monitor\n" * 2000
    stats = LlmStats()
    outcome = llm_mutate(
        ScriptedClient([f"```python\n{program_with(body)}```"]), MONITOR_TEXT, GRAMMAR, stats
    )
    assert outcome.ok, outcome.error
    assert len(outcome.ast.action_statements) == 2000
    assert outcome.program == program_with(body)
    assert (stats.successes, stats.parse_failures) == (1, 0)


def test_a_too_deeply_nested_reply_counts_as_parse_failure():
    depth = 3 * sys.getrecursionlimit()
    body = "    " + "if TRUE == observation['success']: " * depth + "action = Monitor\n"
    stats = LlmStats()
    outcome = llm_mutate(ScriptedClient([program_with(body)]), MONITOR_TEXT, GRAMMAR, stats)
    assert not outcome.ok and outcome.error
    assert (stats.calls, stats.successes, stats.parse_failures) == (1, 0, 1)


@pytest.mark.parametrize("stage", ["build_ast", "render_program"])
def test_a_stack_overflow_after_the_parse_counts_as_parse_failure(monkeypatch, stage):
    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(llm_module, stage, overflow)
    stats = LlmStats()
    outcome = llm_mutate(EchoClient(), MONITOR_TEXT, GRAMMAR, stats)
    assert not outcome.ok
    assert (stats.calls, stats.successes, stats.parse_failures) == (1, 0, 1)


def test_stats_summary_and_formatting():
    stats = LlmStats(calls=4, successes=3, parse_failures=1, tokens_total=50,
                     latency_total=2.0)
    summary = stats.summary()
    assert summary["success_rate"] == 0.75
    assert summary["mean_latency"] == 0.5
    text = format_stats(summary)
    assert "ok: 3" in text and "tokens: 50" in text
    assert LlmStats().summary()["success_rate"] == 0.0  # no division by zero


# ---------------------------------------------------------------------------
# integration with the evolutionary loop


def small_llm_run(client):
    return evolve_one_sided(
        side="blue",
        decoder=RuleTeamDecoder("blue"),
        adversary=[SleepController("red")],
        scenario=TINY,
        evo=EvoConfig(population_size=3, iterations=2, trials=1, repetitions=1),
        master_seed=8,
        label="GE-LLM-B",
        llm_client=client,
    )


def test_llm_children_are_detached_from_their_genomes():
    result = small_llm_run(ExpandingMockClient())
    report = result.llm_report
    assert report is not None
    assert report["calls"] > 0
    failures = report["parse_failures"] + report["transport_failures"]
    assert report["successes"] + failures == report["calls"]
    assert report["successes"] == report["calls"]  # the mock always mutates legally


def test_all_invalid_replies_degrade_to_random_replacement():
    result = small_llm_run(ScriptedClient(["garbage that parses nowhere"]))
    report = result.llm_report
    assert report["successes"] == 0
    assert report["parse_failures"] == report["calls"] > 0
    # the run still completed, with real (non-detached) individuals scored
    assert len(result.trace.records) == 2
    for record in result.trace.records:
        assert record.best is not None


def seeded_population(decoder, seed: int, size: int = 4) -> list:
    rng = np.random.default_rng(seed)
    population = [fresh_individual(decoder, rng) for _ in range(size)]
    for fitness, individual in enumerate(population):
        assert individual.valid and not individual.detached
        individual.fitness = float(fitness)
    return population


def make_children(population, decoder, crossover_p: float, needed: int):
    with patch.object(evolution, "CROSSOVER_P", crossover_p):
        return evolution._make_children(
            population, decoder, np.random.default_rng(5), needed,
            ExpandingMockClient(seed=6), LlmStats(),
        )


def test_accepted_llm_children_are_detached_and_keep_their_parents_genome():
    decoder = RuleTeamDecoder("blue")
    population = seeded_population(decoder, 31)
    children = make_children(population, decoder, crossover_p=0.0, needed=8)
    for child in children:
        assert child.valid and child.detached
        parents = [p for p in population if np.array_equal(p.genome, child.genome)]
        assert len(parents) == 1
        assert child.genome is not parents[0].genome
        # the edit appends one statement to the parent's program
        assert len(child.team[0].ast.action_statements) == (
            len(decoder.decode(parents[0].genome).team[0].ast.action_statements) + 1
        )


def test_detached_parents_never_go_through_crossover(monkeypatch):
    crossed = []
    real_crossover = evolution.one_point_crossover

    def spy(genome_a, genome_b, rng):
        crossed.append((genome_a, genome_b))
        return real_crossover(genome_a, genome_b, rng)

    monkeypatch.setattr(evolution, "one_point_crossover", spy)
    decoder = RuleTeamDecoder("blue")
    population = seeded_population(decoder, 32)
    detached = make_children(population, decoder, crossover_p=1.0, needed=4)
    assert len(crossed) == 2  # attached parents always cross at p = 1
    for fitness, child in enumerate(detached):
        child.fitness = float(fitness)
    crossed.clear()
    make_children(detached, decoder, crossover_p=1.0, needed=6)
    assert crossed == []
    mixed = detached[:2] + population[:2]
    make_children(mixed, decoder, crossover_p=1.0, needed=20)
    assert crossed  # two attached parents still cross
    for genomes in crossed:
        for genome in genomes:
            assert not any(genome is child.genome for child in detached)


def test_llm_children_of_uncrossed_parents_are_not_decoded_again(monkeypatch):
    decoder = RuleTeamDecoder("blue")
    population = seeded_population(decoder, 33)
    decoded = []
    real_decode = RuleTeamDecoder.decode

    def spy(self, genome):
        decoded.append(genome)
        return real_decode(self, genome)

    monkeypatch.setattr(RuleTeamDecoder, "decode", spy)
    children = make_children(population, decoder, crossover_p=0.0, needed=6)
    assert all(child.detached for child in children)
    assert decoded == []
    children = make_children(population, decoder, crossover_p=1.0, needed=6)
    assert len(decoded) >= len(children)  # each crossed-over genome is decoded
