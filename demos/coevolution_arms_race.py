#!/usr/bin/env python3
"""Attacker and defender evolving against each other.

Coevolves a red and a blue population of probabilistic strategy
matrices.  Every iteration plays all red x blue pairings; each side's
fitness is its mean reward across opponents, so the two sides' fitness
traces mirror each other exactly.  Takes about ten seconds.
"""

from __future__ import annotations

from cyberevo.coevolution import coevolve
from cyberevo.evolution import EvoConfig, make_decoder
from cyberevo.scenario.config import ScenarioConfig


def main() -> None:
    evo = EvoConfig(population_size=6, iterations=5, trials=1, repetitions=1)
    pairings = evo.population_size**2 * evo.repetitions
    print(
        f"Coevolving matrix strategies: {evo.population_size} attackers vs "
        f"{evo.population_size} defenders,\nall {pairings} pairings every "
        f"iteration, {evo.iterations} iterations.\n"
    )

    result = coevolve(
        make_decoder("ES", "red"),
        make_decoder("ES", "blue"),
        ScenarioConfig(),
        evo,
        master_seed=31,
        label="ES-C",
    )

    reds = result.trace.filter(side="red").records
    blues = result.trace.filter(side="blue").records
    print("  iter   red best   red mean   blue best  blue mean   episodes")
    for red, blue in zip(reds, blues):
        print(
            f"  {red.iteration:4d}  {red.best:9.1f}  {red.mean:9.1f}  "
            f"{blue.best:9.1f}  {blue.mean:9.1f}  {red.episodes_used:9d}"
        )
    print(
        "\nNote how red mean == -(blue mean) at every iteration: the game is "
        "zero-sum,\nso one side's average gain is exactly the other side's "
        "average loss."
    )
    print(
        "Each side's best, however, is its own strongest individual, so the "
        "best columns\ndo not mirror."
    )

    print(
        f"\nepisodes simulated in total: {result.episodes_total} (each row's "
        "episodes column\ncounts the whole iteration, shared by both sides)"
    )
    red_champion = result.best("red")
    blue_champion = result.best("blue")
    print(
        f"final champions: red fitness {red_champion.fitness:+.1f}, "
        f"blue fitness {blue_champion.fitness:+.1f}"
    )
    print(
        "\nOpponents here adapt, so a champion's score means less than in a "
        "one-sided run:\nits opposition was a moving target, not the fixed "
        "attacker or defender."
    )


if __name__ == "__main__":
    main()
