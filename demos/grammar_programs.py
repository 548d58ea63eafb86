#!/usr/bin/env python3
"""From codon genomes to runnable defender programs.

Shows the production grammar that defines the space of controller
programs, decodes integer genomes into concrete programs, and runs one
decoded program through a full episode against the fixed attacker.
"""

from __future__ import annotations

import numpy as np

from cyberevo.controllers.base import SleepController
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.episodes import run_episode
from cyberevo.evolution import RuleTeamDecoder
from cyberevo.grammar.model import Terminal
from cyberevo.grammar.variants import Variant, load_grammar
from cyberevo.scenario.config import ScenarioConfig


def show_grammar() -> None:
    grammar = load_grammar("blue")
    text = grammar.source
    print("Blue controller grammar (every program is derived from these rules):\n")
    for line in text.splitlines():
        print(f"    {line}")
    counts = grammar.choice_counts()
    branching = {name: n for name, n in counts.items() if n > 1}
    print(f"\nRules with a real choice (these consume genome codons to decide): {branching}")


def show_decodes() -> None:
    decoder = RuleTeamDecoder("blue")
    rng = np.random.default_rng(3)
    print("\nThree random genomes decoded into programs:")
    shown = 0
    while shown < 3:
        genome = rng.integers(0, 256, size=decoder.genome_length)
        outcome = decoder.decode(genome)
        if not outcome.valid:
            print("  (a genome failed to finish deriving within the wrap budget)")
            continue
        shown += 1
        head = ", ".join(str(c) for c in genome[:8])
        print(f"\n  genome [{head}, ...] ->")
        for line in outcome.program.splitlines():
            print(f"    {line}")


def show_target_variant() -> None:
    choosing = load_grammar("blue", Variant.TC)
    print(
        "\nThe 'target section' grammar variant lets programs also choose a "
        "targeting heuristic\n(random_target / first_target / last_target) "
        "instead of inheriting a fixed one:"
    )
    for name in ("th_statements", "th_statement", "target_heuristic"):
        for production in choosing.rules[name]:
            body = " ".join(
                f'"{s.value}"' if isinstance(s, Terminal) else s.name
                for s in production
            )
            print(f"    {name}: {body}")


def run_decoded_program() -> None:
    decoder = RuleTeamDecoder("blue")
    rng = np.random.default_rng(3)
    outcome = decoder.decode(rng.integers(0, 256, size=decoder.genome_length))
    scenario = ScenarioConfig()
    vs_red = run_episode(scenario, 5, outcome.team, [load_fsm_adversary("red")])
    idle = run_episode(scenario, 5, outcome.team, [SleepController("red")])
    print("\nRunning the first decoded program for one full episode:")
    print(f"  vs the fixed attacker : blue total {vs_red.blue_total:+9.1f}")
    print(f"  vs a sleeping attacker: blue total {idle.blue_total:+9.1f}")
    if idle.blue_total < 0:
        print(
            "  (even with no attacker, clumsy defensive actions hurt the "
            "network's own users)"
        )
    else:
        print(
            "  (this program's actions are harmless on their own; programs "
            "that block traffic or\n   restore healthy machines would score "
            "below zero even against a sleeping attacker)"
        )


def main() -> None:
    show_grammar()
    show_decodes()
    show_target_variant()
    run_decoded_program()


if __name__ == "__main__":
    main()
