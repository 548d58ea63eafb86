"""Episode runner: team broadcasting, target resolution, reproducibility."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cyberevo.controllers.base import (
    FIRST_TARGET,
    LAST_TARGET,
    RANDOM_TARGET,
    SleepController,
)
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.episodes import controller_for, resolve_heuristic_target, run_episode
from cyberevo.evolution import evaluate_team
from cyberevo.scenario import engine
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.controllers.rules import RuleController
from cyberevo.grammar.ast import ActionAssign, Condition, IfStatement, ObsTest, RuleAst
from cyberevo.scenario.engine import (
    BLUE_AGENT_ZONES,
    RED_SLOTS,
    ROOT_LEVEL,
    AgentContext,
    ScenarioSim,
    team_size,
)
from cyberevo.scenario.topology import ZONES, TopologyBounds
from helpers import FixedActionController, user_hosts

CONFIG = ScenarioConfig(
    steps=30,
    phase_boundaries=(10, 20),
    bounds=TopologyBounds(servers=(1, 2), user_hosts=(3, 4), services=(1, 2)),
)


def sleep_teams():
    return [SleepController("blue")], [SleepController("red")]


# ---------------------------------------------------------------------------
# slots and broadcasting


def test_agent_slots_follow_side_order():
    blue_order = (
        "blue_restricted_a",
        "blue_operational_a",
        "blue_restricted_b",
        "blue_operational_b",
        "blue_hq",
    )
    assert tuple(name for name, _ in BLUE_AGENT_ZONES) == blue_order
    sim = ScenarioSim(CONFIG, seed=1)
    assert tuple(sim.blue_agents) == blue_order
    for i, agent in enumerate(sim.blue_agents.values()):
        assert agent.slot == i
    assert sim.red_agents[0].name == "red_0" and sim.red_agents[0].slot == 0
    host = user_hosts(sim.topology)[-1]
    sim._spawn_red(4, sim.topology.hosts[host].zone, host)
    assert sim.red_agents[4].name == "red_4" and sim.red_agents[4].slot == 4
    assert (RED_SLOTS, team_size("red", "many"), team_size("blue", "many")) == (6, 6, 5)
    assert team_size("red", "one") == team_size("blue", "one") == 1


def test_singleton_team_is_broadcast():
    sim = ScenarioSim(CONFIG, seed=1)
    shared = SleepController("blue")
    team = [shared]
    assert controller_for(team, sim.blue_agents["blue_hq"]) is shared
    assert controller_for(team, sim.blue_agents["blue_operational_b"]) is shared
    many = [FixedActionController("blue", "Monitor") for _ in range(5)]
    assert controller_for(many, sim.blue_agents["blue_restricted_a"]) is many[0]
    assert controller_for(many, sim.blue_agents["blue_hq"]) is many[4]


class RecordingController:
    """Sleeps, and records every agent it decided for."""

    def __init__(self):
        self.agents = set()

    def decide(self, context, rng):
        self.agents.add((context.agent.name, context.agent.slot))
        return "Sleep", RANDOM_TARGET


def test_each_agent_is_decided_by_its_slots_controller(monkeypatch):
    # Every step fills each free red slot, so all six red agents decide.
    monkeypatch.setattr(engine, "PHISHING_P", 1.0)
    config = ScenarioConfig(steps=6, phase_boundaries=(2, 4), bounds=CONFIG.bounds)
    blue = [RecordingController() for _ in range(team_size("blue", "many"))]
    red = [RecordingController() for _ in range(team_size("red", "many"))]
    run_episode(config, seed=21, blue_team=blue, red_team=red)
    for slot, (name, _) in enumerate(BLUE_AGENT_ZONES):
        assert blue[slot].agents == {(name, slot)}
    for slot in range(RED_SLOTS):
        assert red[slot].agents == {(f"red_{slot}", slot)}


# ---------------------------------------------------------------------------
# target resolution


def red_with_sessions(seed: int):
    """A sim whose anchor knows [u1, f1, r1, r2]: u1 user, r1 and r2 root, f1 none."""
    sim = ScenarioSim(CONFIG, seed)
    red = sim.red_agents[0]
    u1 = red.entry_host
    f1, r1, r2 = [h for h in sim.topology.hosts_by_zone[red.zone] if h != u1][:3]
    for host_id in (f1, r1, r2):
        red.learn(host_id)
    red.sessions.update({r1: ROOT_LEVEL, r2: ROOT_LEVEL})
    return sim, (u1, f1, r1, r2)


def test_resolution_is_action_aware_for_red():
    rng = np.random.default_rng(0)
    sim, (u1, f1, r1, r2) = red_with_sessions(seed=1)
    context = sim.agent_context("red_0")
    zones = [z for z in ZONES if sim.reachable("contractor_uav", z)]
    assert resolve_heuristic_target("Sleep", RANDOM_TARGET, context, rng) is None
    assert resolve_heuristic_target("Monitor", RANDOM_TARGET, context, rng) is None
    assert resolve_heuristic_target(
        "DiscoverRemoteSystems", FIRST_TARGET, context, rng) == zones[0]
    assert resolve_heuristic_target(
        "PrivilegeEscalate", LAST_TARGET, context, rng) == u1
    assert resolve_heuristic_target("Impact", LAST_TARGET, context, rng) == r2
    assert resolve_heuristic_target(
        "DegradeServices", FIRST_TARGET, context, rng) == r1
    assert resolve_heuristic_target(
        "ExploitRemoteService", LAST_TARGET, context, rng) == f1
    # actions without a session requirement draw from everything known
    assert resolve_heuristic_target(
        "AggressiveServiceDiscovery", FIRST_TARGET, context, rng) == u1
    assert resolve_heuristic_target(
        "DiscoverDeception", LAST_TARGET, context, rng) == r2


def test_resolution_returns_none_when_no_candidate_exists():
    rng = np.random.default_rng(0)
    sim = ScenarioSim(CONFIG, seed=2)
    red = sim.red_agents[0]  # knows only its entry host, with a user session
    context = sim.agent_context("red_0")
    assert resolve_heuristic_target("Impact", FIRST_TARGET, context, rng) is None
    red.sessions[red.entry_host] = ROOT_LEVEL
    context = sim.agent_context("red_0")
    assert resolve_heuristic_target("PrivilegeEscalate", LAST_TARGET, context, rng) is None
    assert resolve_heuristic_target(
        "ExploitRemoteService", FIRST_TARGET, context, rng) is None


def test_blue_host_actions_use_known_hosts_unfiltered():
    rng = np.random.default_rng(0)
    sim = ScenarioSim(CONFIG, seed=3)
    hosts = sim.blue_agents["blue_hq"].zone_hosts
    context = sim.agent_context("blue_hq")
    assert resolve_heuristic_target("Restore", FIRST_TARGET, context, rng) == hosts[0]
    assert resolve_heuristic_target("Analyse", LAST_TARGET, context, rng) == hosts[-1]
    assert resolve_heuristic_target(
        "BlockTrafficZone", FIRST_TARGET, context, rng) == "restricted_zone_a"


# ---------------------------------------------------------------------------
# whole episodes


def test_sleep_vs_sleep_scores_zero():
    blue, red = sleep_teams()
    result = run_episode(CONFIG, seed=7, blue_team=blue, red_team=red)
    assert result.blue_total == 0.0
    assert len(result.blue_rewards) == CONFIG.steps
    assert result.blue_rewards == (0.0,) * CONFIG.steps


def test_same_seed_same_episode():
    adversary = [load_fsm_adversary("red")]
    blue = [SleepController("blue")]
    a = run_episode(CONFIG, seed=11, blue_team=blue, red_team=adversary)
    b = run_episode(CONFIG, seed=11, blue_team=blue, red_team=adversary)
    assert a.blue_rewards == b.blue_rewards
    c = run_episode(CONFIG, seed=12, blue_team=blue, red_team=adversary)
    assert a.blue_rewards != c.blue_rewards  # different world, different story


def test_rewards_are_zero_sum_and_red_preys_on_sleep():
    adversary = [load_fsm_adversary("red")]
    blue = [SleepController("blue")]
    result = run_episode(CONFIG, seed=13, blue_team=blue, red_team=adversary)
    assert evaluate_team(adversary, blue, "red", CONFIG, [13]) == -result.blue_total
    assert result.blue_total < 0.0  # an unopposed attacker does real damage


def test_full_default_scenario_runs_both_fsm_teams():
    config = ScenarioConfig()
    assert config.steps == 75
    result = run_episode(
        config, seed=3,
        blue_team=[load_fsm_adversary("blue")],
        red_team=[load_fsm_adversary("red")],
    )
    assert len(result.blue_rewards) == 75
    assert result.blue_total < 0.0


def test_red_scores_a_scoreless_episode_as_positive_zero():
    # Negating the summed blue rewards would give -0.0, which the trace
    # CSV writes as "-0.0".
    blue, red = sleep_teams()
    score = evaluate_team(red, blue, "red", CONFIG, [7, 8])
    assert score == 0.0 and math.copysign(1.0, score) == 1.0


def test_only_rule_controllers_ask_for_observations(monkeypatch):
    asked = []
    observation = AgentContext.observation

    def spy(context):
        asked.append(context.agent.name)
        return observation(context)

    monkeypatch.setattr(AgentContext, "observation", spy)
    fsm_blue, fsm_red = [load_fsm_adversary("blue")], [load_fsm_adversary("red")]
    result = run_episode(ScenarioConfig(), seed=3, blue_team=fsm_blue, red_team=fsm_red)
    assert result.blue_total < 0.0  # both sides acted
    assert asked == []

    idle_blue = []
    idle_agents = ScenarioSim.idle_agents

    def tally(sim):
        agents = idle_agents(sim)
        idle_blue.extend(agent.name for agent in agents if agent.side == "blue")
        return agents

    monkeypatch.setattr(ScenarioSim, "idle_agents", tally)
    program = RuleController(RuleAst(action_statements=(
        ActionAssign("Monitor"),
        IfStatement(Condition("single", ObsTest("files_user", ">", 0)), ActionAssign("Remove")),
    )), "blue")
    run_episode(ScenarioConfig(), seed=3, blue_team=[program], red_team=fsm_red)
    assert asked == idle_blue  # one observation per idle blue decision, in order
    assert len(asked) > ScenarioConfig().steps


def test_rule_controllers_never_compute_classifier_counters(monkeypatch):
    def refuse(self):
        raise AssertionError("a rule controller asked for classifier counters")

    monkeypatch.setattr(AgentContext, "counters", refuse)
    red = RuleController(RuleAst(action_statements=(
        ActionAssign("DiscoverRemoteSystems"),
        IfStatement(
            Condition("single", ObsTest("connections", ">", 1)),
            ActionAssign("ExploitRemoteService"),
        ),
    )), "red")
    blue = RuleController(RuleAst(action_statements=(ActionAssign("Analyse"),)), "blue")
    result = run_episode(CONFIG, seed=17, blue_team=[blue], red_team=[red])
    assert len(result.blue_rewards) == CONFIG.steps
