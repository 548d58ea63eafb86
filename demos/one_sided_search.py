#!/usr/bin/env python3
"""Evolving a defender against the fixed attacker.

Runs a reduced-scale grammatical search for blue controller programs
against the built-in red strategy, prints the fitness trajectory, and
shows the champion program it found.  Takes about twenty seconds.
"""

from __future__ import annotations

from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.evolution import EvoConfig, evolve_one_sided, make_decoder
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.traces import running_best


def main() -> None:
    evo = EvoConfig(population_size=8, iterations=10, trials=2, repetitions=1)
    print(
        f"Evolving blue programs: population {evo.population_size}, "
        f"{evo.iterations} iterations, {evo.trials} independent trials, "
        f"{evo.repetitions} episode(s) per evaluation."
    )
    print("Fitness is the episode reward, so 0 is a perfect defence and")
    print("more negative numbers mean more damage conceded.\n")

    result = evolve_one_sided(
        "blue",
        make_decoder("GE", "blue"),
        [load_fsm_adversary("red")],
        ScenarioConfig(),
        evo,
        master_seed=7,
        label="GE-B",
    )

    for trial in result.trace.trials():
        records = result.trace.filter(trial=trial).records
        print(f"trial {trial}:")
        print("  iteration   best      mean     best-so-far")
        curve = running_best([r.best for r in records])
        for record, so_far in zip(records, curve):
            print(
                f"  {record.iteration:9d}  {record.best:8.1f}  "
                f"{record.mean:8.1f}  {so_far:10.1f}"
            )
    print(f"\nepisodes simulated in total: {result.episodes_total}")

    champion = result.best("blue")
    print(f"\nChampion program (fitness {champion.fitness:.1f}):")
    for line in (champion.program or "").splitlines():
        print(f"    {line}")


if __name__ == "__main__":
    main()
