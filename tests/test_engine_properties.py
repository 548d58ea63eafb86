"""Per-step engine invariants under random legal controllers.

Hypothesis draws an episode seed and the scenario's event
probabilities; both teams pick uniformly among their legal actions and
target heuristics.  Before every step each idle agent's candidate
targets must match the state they are drawn from; after every step the
network state, every active agent's observation and each red agent's
kept counts must agree with each other.  The green users are replayed
against an oracle written from the engine's documented draws.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberevo.controllers.base import TARGET_HEURISTICS
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.episodes import controller_for, resolve_heuristic_target
from cyberevo.scenario.actions import (
    BLUE_ACTIONS,
    RED_ACTIONS,
    TARGET_KINDS,
    TARGET_NONE,
    TARGET_ZONE,
)
from cyberevo.scenario import engine
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.engine import NO_COMPROMISE, ROOT_LEVEL, USER_LEVEL, ScenarioSim
from cyberevo.scenario.topology import ZONES
from cyberevo.seeds import STREAM_CONTROLLER, spawn_generator

from helpers import agent_names
from oracles import oracle_greens, recount_red, service_hosts

STEPS = 30


class RandomLegalController:
    """Uniform over the side's legal actions and the target heuristics."""

    def __init__(self, side: str):
        self.actions = BLUE_ACTIONS if side == "blue" else RED_ACTIONS

    def decide(self, context, rng):
        action = self.actions[int(rng.integers(len(self.actions)))]
        heuristic = TARGET_HEURISTICS[int(rng.integers(len(TARGET_HEURISTICS)))]
        return action, heuristic


def play(sim: ScenarioSim, blue_team, red_team, seed: int, check) -> None:
    """Run ``sim`` to its end, calling ``check(sim, result)`` after each step."""
    rng = spawn_generator(seed, STREAM_CONTROLLER)
    teams = {"blue": blue_team, "red": red_team}
    for _ in range(sim.config.steps):
        submissions = {}
        for agent in sim.idle_agents():
            context = sim.agent_context(agent.name)
            check_targets(sim, agent.name, context)
            action, heuristic = controller_for(teams[agent.side], agent).decide(context, rng)
            submissions[agent.name] = (
                action, resolve_heuristic_target(action, heuristic, context, rng)
            )
        result = sim.step(submissions)
        check(sim, result)


def expected_targets(sim: ScenarioSim, name: str, action: str) -> list[str]:
    """The candidate list of ``action``, recomputed from the raw state."""
    zone_action = TARGET_KINDS[action] == TARGET_ZONE
    if name in sim.blue_agents:
        agent = sim.blue_agents[name]
        if zone_action:
            return [z for z in ZONES if z not in agent.zones]

        def first_flag(host_id):
            runtime = sim.hosts[host_id]
            if runtime.flagged_step is not None:
                return runtime.flagged_step
            return runtime.confirmed_step

        flagged = [h for h in agent.zone_hosts if first_flag(h) is not None]
        flagged.sort(key=lambda h: (first_flag(h), agent.zone_hosts.index(h)))
        return flagged or list(agent.zone_hosts)
    red = next(r for r in sim.red_agents if r is not None and r.name == name)
    if zone_action:
        return [z for z in ZONES if sim.reachable(red.zone, z)]
    if action == "PrivilegeEscalate":
        return [h for h in red.known if red.sessions.get(h) == USER_LEVEL]
    if action in ("Impact", "DegradeServices"):
        return [h for h in red.known if red.sessions.get(h) == ROOT_LEVEL]
    if action == "ExploitRemoteService":
        return [h for h in red.known if h not in red.sessions]
    return list(red.known)


def check_targets(sim: ScenarioSim, name: str, context) -> None:
    actions = BLUE_ACTIONS if name in sim.blue_agents else RED_ACTIONS
    for action in actions:
        if TARGET_KINDS[action] != TARGET_NONE:
            assert context.targets(action) == expected_targets(sim, name, action), (
                name, action,
            )


def observe(sim: ScenarioSim, name: str):
    return sim.agent_context(name).observation()


def check_invariants(sim: ScenarioSim, result) -> None:
    active = [red for red in sim.red_agents if red is not None]
    servers = {host_id for host_id, host in sim.topology.hosts.items() if host.server}
    levels = {host_id: NO_COMPROMISE for host_id in sim.hosts}
    for red in active:
        assert set(red.known) == red.known_set
        assert set(red.sessions) <= red.known_set
        assert red.anchor or red.sessions, f"{red.name} is active without a session"
        for host_id, level in red.sessions.items():
            levels[host_id] = max(levels[host_id], level)
        roots = sum(1 for level in red.sessions.values() if level == ROOT_LEVEL)
        obs = observe(sim, red.name)
        assert obs.success == red.last_success
        assert obs.connections == len(red.known)
        assert obs.files_user == len(red.sessions)
        assert obs.files_root == obs.root_access_levels == roots
        assert obs.n_servers == len(servers & red.known_set)
        assert (red.roots, red.known_servers) == recount_red(sim, red), red.name
    for host_id, runtime in sim.hosts.items():
        assert runtime.red_level == levels[host_id], host_id
    evidence = (
        sum(runtime.files_user_evidence for runtime in sim.hosts.values()),
        sum(runtime.files_root_evidence for runtime in sim.hosts.values()),
    )
    for name, agent in sim.blue_agents.items():
        obs = observe(sim, name)
        assert obs.success == agent.last_success, name
        assert (obs.files_user, obs.files_root) == evidence, name
        assert (obs.n_servers, obs.root_access_levels) == (len(servers), 0), name
    assert agent_names(sim) == [agent.name for agent in sim._active_agents()]

    restoring = {
        agent.pending[1] for agent in sim.blue_agents.values()
        if agent.pending is not None and agent.pending[0] == "Restore"
    }
    assert {h for h, runtime in sim.hosts.items() if runtime.restoring} == restoring


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    phishing_p=st.sampled_from([0.0, 0.02, 0.3]),
    exploit_p=st.floats(0.0, 1.0),
    escalate_p=st.floats(0.0, 1.0),
    service_spawn_p=st.floats(0.0, 1.0),
)
def test_engine_invariants_hold_on_every_step(
    seed, phishing_p, exploit_p, escalate_p, service_spawn_p
):
    config = ScenarioConfig(steps=STEPS, phase_boundaries=(10, 20))
    with patch.multiple(
        engine,
        PHISHING_P=phishing_p,
        EXPLOIT_SCANNED_P=exploit_p,
        EXPLOIT_UNSCANNED_P=exploit_p,
        ESCALATE_P=escalate_p,
        SERVICE_SPAWN_P=service_spawn_p,
    ):
        sim = ScenarioSim(config, seed)
        play(
            sim,
            [RandomLegalController("blue")],
            [RandomLegalController("red")],
            seed,
            check_invariants,
        )


def test_blue_counts_that_baseline_programs_read_never_change():
    """Blue's root_access_levels is always 0 and its n_servers is fixed.

    ``n_servers`` also exceeds 2, the largest grammar constant, so every
    comparison a baseline/TR/TN/TO/TC blue program makes on these two
    counts has the same result all episode: only the success flag can
    steer such a program.
    """
    seen = []

    def record(sim, result):
        for name in sim.blue_agents:
            obs = observe(sim, name)
            seen.append((obs.n_servers, obs.root_access_levels))

    config = ScenarioConfig()
    for seed in (0, 1, 2):
        sim = ScenarioSim(config, seed)
        seen.clear()
        play(
            sim,
            [load_fsm_adversary("blue")],
            [load_fsm_adversary("red")],
            seed,
            record,
        )
        n_servers = sum(1 for host in sim.topology.hosts.values() if host.server)
        assert len(seen) == config.steps * len(sim.blue_agents)
        assert set(seen) == {(n_servers, 0)}
        assert n_servers > 2


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fsm=st.booleans(),
    phishing_p=st.sampled_from([0.02, 0.3]),
)
def test_a_kept_context_answers_as_a_fresh_one(seed, fsm, phishing_p):
    """The episode runner keeps one decision view per agent object all
    episode; a view made at an earlier step must answer every later step
    as one made at that step does."""
    config = ScenarioConfig(steps=STEPS, phase_boundaries=(10, 20))
    with patch.multiple(engine, PHISHING_P=phishing_p):
        sim = ScenarioSim(config, seed)
        if fsm:
            teams = {"blue": [load_fsm_adversary("blue")], "red": [load_fsm_adversary("red")]}
        else:
            teams = {"blue": [RandomLegalController("blue")], "red": [RandomLegalController("red")]}
        rng = spawn_generator(seed, STREAM_CONTROLLER)
        kept = {}
        for _ in range(config.steps):
            submissions = {}
            for agent in sim.idle_agents():
                fresh = sim.agent_context(agent.name)
                context = kept.setdefault(agent, fresh)
                assert context.observation() == fresh.observation(), agent.name
                assert context.counters() == fresh.counters(), agent.name
                for action in RED_ACTIONS if agent.side == "red" else BLUE_ACTIONS:
                    if TARGET_KINDS[action] != TARGET_NONE:
                        assert context.targets(action) == fresh.targets(action), (agent.name, action)
                action, heuristic = controller_for(teams[agent.side], agent).decide(context, rng)
                submissions[agent.name] = (
                    action, resolve_heuristic_target(action, heuristic, context, rng)
                )
            sim.step(submissions)


class WideTable:
    """A service table of ``span`` entries that repeats a real one.

    Over the real table's few dozen entries, Lemire's loop redraws a
    half-word fewer than once in 10**7 draws; over 2**31 + 5 it redraws
    about every other one, so a loop that skipped or misplaced its threshold
    test would draw differently at once.
    """

    def __init__(self, entries, span: int):
        self.entries, self.span = entries, span

    def __len__(self) -> int:
        return self.span

    def __getitem__(self, index: int):
        return self.entries[index % len(self.entries)]


def red_rosters(sim: ScenarioSim) -> list:
    """Each red slot's agent as plain values, or None."""
    return [
        None if red is None else (red.name, red.zone, red.entry_host, dict(red.sessions), list(red.known))
        for red in sim.red_agents
    ]


@pytest.mark.parametrize("table", ["topology", "one", "wide"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    local_work_p=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    service_spawn_p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    phishing_p=st.sampled_from([0.0, 0.02, 0.3]),
)
def test_green_users_draw_as_the_documented_oracle_does(
    seed, local_work_p, service_spawn_p, phishing_p, table
):
    """Two sims of one seed, one running `_run_greens` and one the oracle,
    see the same events, the same red sessions and rosters, and the same
    next scenario-stream word and half-word after every step.  The
    service table is the topology's, a `WideTable` over it, or one
    entry, on a server so no green holds it, which must draw nothing."""
    config = ScenarioConfig(steps=STEPS, phase_boundaries=(10, 20))
    with patch.multiple(
        engine,
        GREEN_LOCAL_WORK_P=local_work_p,
        SERVICE_SPAWN_P=service_spawn_p,
        PHISHING_P=phishing_p,
    ):
        library, oracle = ScenarioSim(config, seed), ScenarioSim(config, seed)
        services = service_hosts(oracle.topology)
        if table == "one":
            server = next(h for h in services if oracle.topology.hosts[h].server)
            services = [server]
            library._service_table = [
                (server, library.topology.hosts[server].zone, library.hosts[server])
            ]
        elif table == "wide":
            services = WideTable(services, 2**31 + 5)
            library._service_table = WideTable(library._service_table, 2**31 + 5)
        oracle._run_greens = lambda events: oracle_greens(oracle, events, services)
        teams = {"blue": RandomLegalController("blue"), "red": RandomLegalController("red")}
        rngs = {sim: spawn_generator(seed, STREAM_CONTROLLER) for sim in (library, oracle)}
        for step in range(config.steps):
            results = []
            for sim, rng in rngs.items():
                submissions = {}
                for agent in sim.idle_agents():
                    context = sim.agent_context(agent.name)
                    action, heuristic = teams[agent.side].decide(context, rng)
                    submissions[agent.name] = (
                        action, resolve_heuristic_target(action, heuristic, context, rng)
                    )
                results.append(sim.step(submissions))
            assert results[0].events == results[1].events, step
            assert results[0].blue_reward == results[1].blue_reward, step
            assert red_rosters(library) == red_rosters(oracle), step
            assert library.rng.next_word() == oracle.rng.next_word(), step
            assert library.rng.next_half() == oracle.rng.next_half(), step
