#!/usr/bin/env python3
"""Program mutation through a language-model client.

Instead of flipping codons, the LLM-assisted mutation operator sends the
current controller program plus its grammar to a completion client and
keeps the reply only if it parses back under the grammar.  This demo
uses the built-in offline mock client, so it runs without any network
access: the mock reads the grammar out of the prompt and appends one
legal assignment per call.
"""

from __future__ import annotations

from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.evolution import EvoConfig, RuleTeamDecoder, evolve_one_sided, make_decoder
from cyberevo.llm import (
    ExpandingMockClient,
    LlmStats,
    ScriptedClient,
    build_prompt,
    format_stats,
    llm_mutate,
)
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.topology import TopologyBounds

SEED_PROGRAM = (
    "def select_action_and_target(observation, name):\n"
    "    #Select action\n"
    "    action = Monitor\n"
    "    target_heuristic = random_target\n"
    "    return action, target_heuristic\n"
)


def show_prompt() -> None:
    decoder = RuleTeamDecoder("blue")
    prompt = build_prompt(decoder.grammar, SEED_PROGRAM)
    print("The prompt sent for one mutation (truncated):\n")
    lines = prompt.splitlines()
    for line in lines[:6]:
        print(f"    {line}")
    print(f"    ... ({len(lines)} lines total: persona, grammar, program, instructions)")


def chained_mutations() -> None:
    decoder = RuleTeamDecoder("blue")
    stats = LlmStats()
    client = ExpandingMockClient()
    program = SEED_PROGRAM
    print("\nFive chained mutations through the offline mock client:\n")
    for round_number in range(1, 6):
        outcome = llm_mutate(client, program, decoder.grammar, stats)
        if not outcome.ok:
            print(f"  round {round_number}: reply rejected ({outcome.error})")
            continue
        program = outcome.program
        statements = len(program.splitlines()) - 4
        print(f"  round {round_number}: accepted, program now has {statements} statement(s)")
    print("\nFinal program:")
    for line in program.splitlines():
        print(f"    {line}")
    print(f"\n{format_stats(stats.summary())}")


def degraded_run() -> None:
    print(
        "\nA client that never returns valid code cannot stall the search: "
        "every failed\nmutation is replaced by a fresh random individual, and "
        "the failure is counted."
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
        llm_client=ScriptedClient(["I would simply not get hacked."]),
    )
    print(f"\nrun completed: {len(result.trace.records)} iterations logged")
    print(format_stats(result.llm_report))


def main() -> None:
    show_prompt()
    chained_mutations()
    degraded_run()


if __name__ == "__main__":
    main()
