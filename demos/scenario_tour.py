#!/usr/bin/env python3
"""A guided tour of one simulated episode.

Generates a network, walks through a full episode with the built-in
fixed red and blue strategies, and narrates what both sides did for the
opening steps before summarizing the final score by mission phase.
The loop drives the engine exactly as `run_episode` does, and the tour
ends by checking that both give the same total.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.episodes import controller_for, resolve_heuristic_target, run_episode
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.engine import ScenarioSim
from cyberevo.scenario.rewards import phase_of
from cyberevo.scenario.topology import ZONES
from cyberevo.seeds import STREAM_CONTROLLER, spawn_stream

SEED = 11
NARRATED_STEPS = 12


def describe_topology(sim: ScenarioSim) -> None:
    topology = sim.topology
    print(f"Generated network (seed {SEED}):")
    for zone in ZONES:
        hosts = topology.hosts_by_zone[zone]
        servers = [h for h in hosts if topology.hosts[h].server]
        users = [h for h in hosts if not topology.hosts[h].server]
        services = sum(topology.hosts[h].services for h in hosts)
        print(
            f"  {zone:22s} {len(servers)} server(s), {len(users)} user host(s), "
            f"{services} service(s)"
        )
    print(f"  total hosts: {len(topology.hosts)}")
    anchor = sim.red_agents[0]
    print(f"\nRed starts with a foothold: {anchor.name} on {anchor.entry_host}")
    print(f"Blue fields {len(sim.blue_agents)} defenders: {', '.join(sim.blue_agents)}")


def main() -> None:
    config = ScenarioConfig()
    sim = ScenarioSim(config, SEED)
    describe_topology(sim)

    blue_team = [load_fsm_adversary("blue")]
    red_team = [load_fsm_adversary("red")]
    teams = {"blue": blue_team, "red": red_team}
    rng = spawn_stream(SEED, STREAM_CONTROLLER)

    print(f"\nEpisode: {config.steps} steps, phases change after steps "
          f"{config.phase_boundaries[0]} and {config.phase_boundaries[1]}.")
    print(f"First {NARRATED_STEPS} steps in detail:\n")

    phase_blue = defaultdict(float)
    step_rewards = []
    for step in range(config.steps):
        submissions = {}
        for agent in sim.idle_agents():
            context = sim.agent_context(agent.name)
            action, heuristic = controller_for(teams[agent.side], agent).decide(context, rng)
            target = resolve_heuristic_target(action, heuristic, context, rng)
            submissions[agent.name] = (action, target)
        result = sim.step(submissions)
        phase = phase_of(step, config.phase_boundaries, config.steps)
        phase_blue[phase] += result.blue_reward
        step_rewards.append(result.blue_reward)

        if step < NARRATED_STEPS:
            moves = ", ".join(
                f"{name}:{action}" + (f"->{target}" if target else "")
                for name, (action, target) in sorted(submissions.items())
            )
            print(f"  step {step:2d} [{phase}]  blue reward {result.blue_reward:+6.1f}")
            print(f"          {moves}")
            tally: defaultdict[tuple[str, str], int] = defaultdict(int)
            for event in result.events:
                tally[(event.kind, event.zone)] += 1
            for (kind, zone), count in sorted(tally.items()):
                print(f"          event: {kind} x{count} in {zone}")

    print("\nBlue reward by phase (red receives the mirror image):")
    for phase in sorted(phase_blue):
        print(f"  {phase:8s} {phase_blue[phase]:+9.1f}")
    total = float(sum(step_rewards))  # summed as run_episode sums
    print(f"  {'total':8s} {total:+9.1f}")
    expected = run_episode(config, SEED, blue_team, red_team).blue_total
    print(f"\nCross-check with run_episode on the same seed: {expected:+.1f}")
    if total != expected:
        sys.exit(f"the hand-driven total {total!r} differs from run_episode's {expected!r}")


if __name__ == "__main__":
    main()
