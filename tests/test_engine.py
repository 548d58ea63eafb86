"""Simulation engine semantics: agents, actions, events, observations.

Several tests manufacture mid-episode state directly (sessions, flags,
degraded hosts) so one mechanism can be observed in isolation instead
of through a long scripted prelude.
"""

from __future__ import annotations

import pytest

from cyberevo.errors import SimulationFault
from cyberevo.scenario import engine
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.engine import (
    NO_COMPROMISE,
    ROOT_LEVEL,
    USER_LEVEL,
    BLUE_AGENT_ZONES,
    RED_SLOTS,
    RedAgent,
    ScenarioSim,
)
from cyberevo.scenario.observations import FALSE, TRUE, UNKNOWN
from cyberevo.scenario.rewards import (
    ACCESS_SERVICE_FAILS,
    LOCAL_WORK_FAILS,
    RED_IMPACT_ACCESS,
    StepEvent,
)
from cyberevo.scenario.topology import HOST_ZONES, INTERNET, REWARD_ZONE_OF, ZONES, TopologyBounds

from helpers import agent_names, user_hosts

SMALL_BOUNDS = TopologyBounds(servers=(1, 2), user_hosts=(3, 4), services=(1, 2))


# Noise-free event probabilities: no phishing, greens never fail on
# their own, red rolls always succeed, detections never fire.
QUIET = dict(
    PHISHING_P=0.0,
    GREEN_LOCAL_WORK_P=1.0,
    SERVICE_SPAWN_P=0.0,
    SCAN_DETECT_AGGRESSIVE_P=0.0,
    SCAN_DETECT_STEALTH_P=0.0,
    EXPLOIT_SCANNED_P=1.0,
    EXPLOIT_UNSCANNED_P=1.0,
    ESCALATE_P=1.0,
)


@pytest.fixture(autouse=True)
def quiet(monkeypatch):
    """Every test here runs with the `QUIET` probabilities; the fixture
    patches further engine probabilities, by constant name, for one test.
    A simulation reads them when it is built and as its actions apply."""

    def patch(**probabilities):
        for name, value in probabilities.items():
            monkeypatch.setattr(engine, name, value)  # raises on a name engine lacks

    patch(**QUIET)
    return patch


def quiet_config(**overrides) -> ScenarioConfig:
    """Small scenario; the `quiet` fixture keeps it noise-free."""
    defaults = dict(steps=40, phase_boundaries=(10, 20), bounds=SMALL_BOUNDS)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def idle_names(sim: ScenarioSim) -> list[str]:
    return [agent.name for agent in sim.idle_agents()]


def observe(sim: ScenarioSim, name: str):
    """What ``name``'s rule program would read now."""
    return sim.agent_context(name).observation()


def sleep_step(sim: ScenarioSim):
    return sim.step({name: ("Sleep", None) for name in idle_names(sim)})


def step_with(sim: ScenarioSim, overrides: dict):
    submissions = {name: ("Sleep", None) for name in idle_names(sim)}
    submissions.update(overrides)
    return sim.step(submissions)


def anchor(sim: ScenarioSim) -> RedAgent:
    agent = sim.red_agents[0]
    assert agent is not None
    return agent


def plant_red(sim: ScenarioSim, slot: int, zone: str, host: str) -> RedAgent:
    """Manufacture a non-anchor red agent holding a user session."""
    sim._spawn_red(slot, zone, host)
    return sim.red_agents[slot]


# ---------------------------------------------------------------------------
# setup and determinism


def test_initial_state():
    sim = ScenarioSim(quiet_config(), seed=1)
    red = anchor(sim)
    assert red.name == "red_0"
    assert red.anchor
    assert red.zone == "contractor_uav"
    assert red.sessions == {red.entry_host: USER_LEVEL}
    assert sim.hosts[red.entry_host].red_level == USER_LEVEL
    assert set(sim.blue_agents) == {name for name, _ in BLUE_AGENT_ZONES}
    assert len(agent_names(sim)) == 6
    assert idle_names(sim) == agent_names(sim)
    for name, zones in BLUE_AGENT_ZONES:
        agent = sim.blue_agents[name]
        assert sim.topology.hosts[agent.home_host].zone in zones
        assert all(sim.topology.hosts[h].zone in zones for h in agent.zone_hosts)


def test_same_seed_replays_identically(quiet):
    quiet(PHISHING_P=0.2, GREEN_LOCAL_WORK_P=0.5)
    config = quiet_config()
    a = ScenarioSim(config, seed=5)
    b = ScenarioSim(config, seed=5)
    assert a.topology == b.topology
    for _ in range(10):
        ra = sleep_step(a)
        rb = sleep_step(b)
        assert ra.events == rb.events
        assert ra.blue_reward == rb.blue_reward
        assert agent_names(a) == agent_names(b)
        for name in agent_names(a):
            assert observe(a, name) == observe(b, name)


def test_a_degraded_host_costs_blue_every_step():
    sim = ScenarioSim(quiet_config(), seed=2)
    victim = user_hosts(sim.topology)[0]
    sim.hosts[victim].degraded = True
    for _ in range(5):
        assert sleep_step(sim).blue_reward < 0


# ---------------------------------------------------------------------------
# submission validation


def test_illegal_submissions_raise():
    sim = ScenarioSim(quiet_config(), seed=3)
    red = anchor(sim)
    with pytest.raises(SimulationFault):
        step_with(sim, {"red_9": ("Sleep", None)})
    with pytest.raises(SimulationFault):
        step_with(sim, {"blue_hq": ("Impact", red.entry_host)})
    with pytest.raises(SimulationFault):
        step_with(sim, {"red_0": ("AggressiveServiceDiscovery", "no_such_host")})
    with pytest.raises(SimulationFault):
        step_with(sim, {"red_0": ("DiscoverRemoteSystems", "atlantis")})
    with pytest.raises(SimulationFault):
        step_with(sim, {"red_0": ("Sleep", red.entry_host)})
    with pytest.raises(SimulationFault):
        step_with(sim, {"blue_hq": ("Monitor", sim.blue_agents["blue_hq"].home_host)})


def test_submission_for_a_deactivated_red_slot_raises():
    sim = ScenarioSim(quiet_config(), seed=3)
    host = user_hosts(sim.topology)[-1]
    plant_red(sim, 1, sim.topology.hosts[host].zone, host)
    step_with(sim, {"red_1": ("Withdraw", host)})
    assert sim.red_agents[1] is None  # its last session is gone
    with pytest.raises(SimulationFault, match="red_1"):
        step_with(sim, {"red_1": ("Sleep", None)})


def test_agent_context_finds_live_agents_and_rejects_other_names():
    sim = ScenarioSim(quiet_config(), seed=3)
    host = user_hosts(sim.topology)[-1]
    plant_red(sim, 2, sim.topology.hosts[host].zone, host)
    for name in ("blue_hq", "red_0", "red_2"):
        assert sim.agent_context(name).agent.name == name
    assert sim.agent_context("red_2").agent is sim.red_agents[2]
    for name in ("red_1", "red_02", f"red_{RED_SLOTS}", "red_-1", "ghost", "red"):
        with pytest.raises(SimulationFault, match="unknown agent"):
            sim.agent_context(name)
    step_with(sim, {"red_2": ("Withdraw", host)})
    assert sim.red_agents[2] is None
    with pytest.raises(SimulationFault, match="red_2"):
        sim.agent_context("red_2")


def test_unknown_names_raise_before_any_submission_applies():
    sim = ScenarioSim(quiet_config(), seed=3)
    submissions = {
        "blue_hq": ("Monitor", None),
        "ghost": ("Sleep", None),
        "red_0": ("Sleep", None),
        "red_7": ("Sleep", None),
    }
    with pytest.raises(SimulationFault, match=r"unknown agents \['ghost', 'red_7'\]$"):
        sim.step(submissions)
    assert sim.step_index == 0
    assert sim.blue_agents["blue_hq"].pending is None


def test_blue_submits_and_applies_before_red_whatever_the_dict_order():
    sim = ScenarioSim(quiet_config(), seed=3)
    with pytest.raises(SimulationFault, match="^blue_hq submitted illegal"):
        sim.step({"red_0": ("Restore", None), "blue_hq": ("Impact", None)})

    host = sim.topology.hosts_by_zone["restricted_zone_a"][-1]
    red = plant_red(sim, 1, "restricted_zone_a", host)
    sim.step({"red_1": ("DiscoverDeception", host), "blue_restricted_a": ("DeployDecoy", host)})
    assert red.last_success == TRUE  # the decoy was down before red looked
    assert red.decoys_known == {host}


def test_episode_cannot_run_past_its_horizon():
    sim = ScenarioSim(quiet_config(steps=12, phase_boundaries=(4, 8)), seed=4)
    for _ in range(12):
        sleep_step(sim)
    with pytest.raises(SimulationFault):
        sleep_step(sim)


def test_unresolved_target_degrades_to_noop():
    sim = ScenarioSim(quiet_config(), seed=5)
    result = step_with(sim, {"red_0": ("Impact", None)})
    assert anchor(sim).last_success == FALSE
    assert result.blue_reward == 0.0


# ---------------------------------------------------------------------------
# durations and busy agents


def test_multi_step_actions_keep_agents_busy():
    sim = ScenarioSim(quiet_config(), seed=6)
    red = anchor(sim)
    step_with(sim, {"red_0": ("StealthServiceDiscovery", red.entry_host)})
    assert red.pending is not None
    assert "red_0" not in idle_names(sim)
    with pytest.raises(SimulationFault):
        step_with(sim, {"red_0": ("Impact", red.entry_host)})
    step_with(sim, {"red_0": ("Sleep", None)})  # sleeping while busy is fine
    sleep_step(sim)  # third tick completes the scan
    assert red.pending is None
    assert red.entry_host in red.scanned
    assert red.last_success == TRUE


def test_restore_takes_host_offline_for_its_window():
    sim = ScenarioSim(quiet_config(), seed=7)
    blue = sim.blue_agents["blue_restricted_a"]
    target = next(h for h in blue.zone_hosts if not sim.topology.hosts[h].server)
    result = step_with(sim, {"blue_restricted_a": ("Restore", target)})
    assert sim.hosts[target].restoring  # offline while reimaging
    zone_label = REWARD_ZONE_OF["restricted_zone_a"]
    assert StepEvent(zone_label, LOCAL_WORK_FAILS) in result.events
    sleep_step(sim)  # completion
    assert not sim.hosts[target].restoring


# ---------------------------------------------------------------------------
# red actions


def test_discover_remote_systems_learns_each_zone_host_once():
    sim = ScenarioSim(quiet_config(), seed=8)
    red = anchor(sim)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "contractor_uav")})
    assert red.last_success == TRUE
    assert set(red.known) == set(sim.topology.hosts_by_zone["contractor_uav"])
    assert red.known[0] == red.entry_host  # discovery preserves order
    assert len(red.known) == len(set(red.known))
    context = sim.agent_context("red_0")
    assert context.counters()["discovery_events"] == 1
    assert context.counters()["known_hosts"] == len(red.known)


def test_discover_fails_when_zone_unreachable():
    sim = ScenarioSim(quiet_config(), seed=9)
    sim.blocked.add(tuple(sorted((INTERNET, "contractor_uav"))))
    sim._reach_dirty = True
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "restricted_zone_a")})
    red = anchor(sim)
    assert red.last_success == FALSE
    assert red.known == [red.entry_host]


def test_scan_then_exploit_gains_user_session_in_zone():
    sim = ScenarioSim(quiet_config(), seed=10)
    red = anchor(sim)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "contractor_uav")})
    target = next(h for h in red.known if h != red.entry_host)
    step_with(sim, {"red_0": ("AggressiveServiceDiscovery", target)})
    assert target in red.scanned
    step_with(sim, {"red_0": ("ExploitRemoteService", target)})  # two-step action
    assert red.pending is not None
    sleep_step(sim)
    assert red.sessions.get(target) == USER_LEVEL
    assert sim.hosts[target].red_level == USER_LEVEL


def test_cross_zone_exploit_spawns_a_new_agent():
    sim = ScenarioSim(quiet_config(), seed=11)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "restricted_zone_a")})
    target = sim.topology.hosts_by_zone["restricted_zone_a"][0]
    step_with(sim, {"red_0": ("ExploitRemoteService", target)})
    sleep_step(sim)
    spawned = sim.red_agents[1]
    assert spawned is not None
    assert spawned.zone == "restricted_zone_a"
    assert spawned.entry_host == target
    assert not spawned.anchor
    assert spawned.sessions == {target: USER_LEVEL}


def test_exploit_routes_to_resident_agent_when_zone_is_occupied():
    sim = ScenarioSim(quiet_config(), seed=12)
    zone_hosts = sim.topology.hosts_by_zone["restricted_zone_a"]
    resident = plant_red(sim, 1, "restricted_zone_a", zone_hosts[0])
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "restricted_zone_a")})
    target = zone_hosts[1]
    step_with(sim, {"red_0": ("ExploitRemoteService", target)})
    sleep_step(sim)
    assert sim.red_agents[2] is None  # no extra agent
    assert resident.sessions.get(target) == USER_LEVEL
    assert target in resident.known


def test_escalate_then_impact_generate_access_events():
    sim = ScenarioSim(quiet_config(), seed=13)
    red = anchor(sim)
    entry = red.entry_host
    step_with(sim, {"red_0": ("PrivilegeEscalate", entry)})  # two-step action
    result = sleep_step(sim)
    assert red.sessions[entry] == ROOT_LEVEL
    assert StepEvent("Contractor Network", RED_IMPACT_ACCESS) in result.events
    assert result.blue_reward == -5.0  # contractor access penalty in the first phase
    result = step_with(sim, {"red_0": ("Impact", entry)})
    assert StepEvent("Contractor Network", RED_IMPACT_ACCESS) in result.events
    assert red.last_success == TRUE


def test_escalate_requires_a_user_session():
    sim = ScenarioSim(quiet_config(), seed=14)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "contractor_uav")})
    red = anchor(sim)
    target = next(h for h in red.known if h != red.entry_host)
    step_with(sim, {"red_0": ("PrivilegeEscalate", target)})
    sleep_step(sim)
    assert red.last_success == FALSE
    assert target not in red.sessions


def test_degrade_requires_root_and_breaks_local_work():
    sim = ScenarioSim(quiet_config(), seed=15)
    red = anchor(sim)
    entry = red.entry_host
    step_with(sim, {"red_0": ("DegradeServices", entry)})
    assert red.last_success == FALSE  # only a user session so far
    red.sessions[entry] = ROOT_LEVEL
    step_with(sim, {"red_0": ("DegradeServices", entry)})
    assert red.last_success == TRUE
    assert sim.hosts[entry].degraded
    if not sim.topology.hosts[entry].server:
        result = sleep_step(sim)
        zone_label = REWARD_ZONE_OF["contractor_uav"]
        assert StepEvent(zone_label, LOCAL_WORK_FAILS) in result.events


def test_withdraw_spares_the_anchor_foothold():
    sim = ScenarioSim(quiet_config(), seed=16)
    red = anchor(sim)
    step_with(sim, {"red_0": ("Withdraw", red.entry_host)})
    assert red.last_success == FALSE
    assert red.sessions == {red.entry_host: USER_LEVEL}
    other = sim.topology.hosts_by_zone["contractor_uav"][-1]
    if other == red.entry_host:
        other = sim.topology.hosts_by_zone["contractor_uav"][0]
    red.sessions[other] = USER_LEVEL
    red.learn(other)
    sim._recompute_level(other)
    step_with(sim, {"red_0": ("Withdraw", other)})
    assert red.last_success == TRUE
    assert other not in red.sessions
    assert sim.hosts[other].red_level == NO_COMPROMISE


# ---------------------------------------------------------------------------
# blue actions


def test_deploy_decoy_once_then_red_trips_it(quiet):
    quiet(DECOY_TRIP_P=1.0)
    sim = ScenarioSim(quiet_config(), seed=17)
    blue = sim.blue_agents["blue_restricted_a"]
    target = blue.zone_hosts[0]
    step_with(sim, {"blue_restricted_a": ("DeployDecoy", target)})
    assert blue.last_success == TRUE
    assert sim.hosts[target].decoy
    step_with(sim, {"blue_restricted_a": ("DeployDecoy", target)})
    assert blue.last_success == FALSE  # already a decoy

    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "restricted_zone_a")})
    step_with(sim, {"red_0": ("DiscoverDeception", target)})
    red = anchor(sim)
    assert red.last_success == TRUE
    assert target in red.decoys_known
    step_with(sim, {"red_0": ("ExploitRemoteService", target)})
    sleep_step(sim)
    assert red.last_success == FALSE  # the decoy absorbed the exploit
    assert target not in red.sessions
    assert sim.hosts[target].flagged_step is not None  # decoy trips always flag


def test_decoy_outside_own_zones_is_refused():
    sim = ScenarioSim(quiet_config(), seed=18)
    foreign = sim.topology.hosts_by_zone["restricted_zone_b"][0]
    step_with(sim, {"blue_restricted_a": ("DeployDecoy", foreign)})
    assert sim.blue_agents["blue_restricted_a"].last_success == FALSE
    assert not sim.hosts[foreign].decoy


def test_monitor_gates_scan_detections(quiet):
    quiet(SCAN_DETECT_AGGRESSIVE_P=1.0)
    config = quiet_config()
    target_zone = "restricted_zone_a"

    sim = ScenarioSim(config, seed=19)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", target_zone)})
    target = sim.topology.hosts_by_zone[target_zone][0]
    step_with(sim, {
        "red_0": ("AggressiveServiceDiscovery", target),
        "blue_restricted_a": ("Monitor", None),
    })
    assert sim.hosts[target].flagged_step is not None
    assert observe(sim, "blue_restricted_a").connections == 1
    context = sim.agent_context("blue_restricted_a")
    assert context.counters()["zone_suspicious"] == 1
    assert context.counters()["flagged_suspicious"] == 1

    sim = ScenarioSim(config, seed=19)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", target_zone)})
    step_with(sim, {"red_0": ("AggressiveServiceDiscovery", target)})
    assert sim.hosts[target].flagged_step is None  # nobody was watching
    assert observe(sim, "blue_restricted_a").connections == 0
    assert sim.agent_context("blue_restricted_a").counters()["zone_suspicious"] == 0


def test_analyse_confirms_compromise_and_clean_hosts():
    sim = ScenarioSim(quiet_config(), seed=20)
    zone_hosts = sim.topology.hosts_by_zone["restricted_zone_a"]
    victim = zone_hosts[0]
    plant_red(sim, 1, "restricted_zone_a", victim)
    step_with(sim, {"blue_restricted_a": ("Analyse", victim)})
    runtime = sim.hosts[victim]
    assert runtime.files_user_evidence == 1
    assert runtime.files_root_evidence == 0
    assert runtime.confirmed_step is not None
    for name in sim.blue_agents:  # evidence is visible to the whole team
        assert observe(sim, name).files_user == 1
        assert observe(sim, name).files_root == 0
    context = sim.agent_context("blue_restricted_a")
    assert context.counters()["confirmed_compromised"] == 1

    clean = zone_hosts[1]
    step_with(sim, {"blue_restricted_a": ("Analyse", clean)})
    assert sim.hosts[clean].confirmed_step is None
    assert sim.agent_context("blue_restricted_a").counters()["analysed_clean"] == 1


def test_remove_clears_user_sessions_but_not_root():
    sim = ScenarioSim(quiet_config(), seed=21)
    victim = sim.topology.hosts_by_zone["restricted_zone_a"][0]
    intruder = plant_red(sim, 1, "restricted_zone_a", victim)
    step_with(sim, {"blue_restricted_a": ("Remove", victim)})
    assert sim.blue_agents["blue_restricted_a"].last_success == TRUE
    assert sim.hosts[victim].red_level == NO_COMPROMISE
    assert sim.red_agents[1] is None  # agent lost its only session

    intruder = plant_red(sim, 1, "restricted_zone_a", victim)
    intruder.sessions[victim] = ROOT_LEVEL
    sim._recompute_level(victim)
    step_with(sim, {"blue_restricted_a": ("Remove", victim)})
    assert sim.blue_agents["blue_restricted_a"].last_success == FALSE
    assert sim.hosts[victim].red_level == ROOT_LEVEL  # root shrugs off Remove


def test_restore_evicts_root_and_wipes_host_state():
    sim = ScenarioSim(quiet_config(), seed=22)
    victim = sim.topology.hosts_by_zone["restricted_zone_a"][0]
    intruder = plant_red(sim, 1, "restricted_zone_a", victim)
    intruder.sessions[victim] = ROOT_LEVEL
    sim._recompute_level(victim)
    sim.hosts[victim].degraded = True
    sim.hosts[victim].decoy = True
    step_with(sim, {"blue_restricted_a": ("Restore", victim)})
    sleep_step(sim)  # second step of the reimage
    host = sim.hosts[victim]
    assert host.red_level == NO_COMPROMISE
    assert not host.degraded and not host.decoy and not host.restoring
    assert host.confirmed_step is None
    assert sim.red_agents[1] is None


def test_restore_keeps_an_anchor_foothold_at_user_level():
    sim = ScenarioSim(quiet_config(), seed=23)
    victim = sim.topology.hosts_by_zone["restricted_zone_a"][0]
    agent = RedAgent("red_1", 1, "restricted_zone_a", victim, anchor=True)
    agent.sessions[victim] = ROOT_LEVEL
    sim.red_agents[1] = agent
    sim._recompute_level(victim)
    step_with(sim, {"blue_restricted_a": ("Restore", victim)})
    sleep_step(sim)
    assert agent.sessions == {victim: USER_LEVEL}  # downgraded, not evicted
    assert sim.red_agents[1] is agent
    assert sim.hosts[victim].red_level == USER_LEVEL

    step_with(sim, {"blue_restricted_a": ("Remove", victim)})
    assert agent.sessions == {victim: USER_LEVEL}  # the foothold survives Remove


def test_block_and_allow_traffic_zone():
    sim = ScenarioSim(quiet_config(), seed=24)
    assert sim.reachable("contractor_uav", "restricted_zone_a")
    step_with(sim, {"blue_restricted_a": ("BlockTrafficZone", INTERNET)})
    assert sim.blue_agents["blue_restricted_a"].last_success == TRUE
    assert not sim.reachable("contractor_uav", "restricted_zone_a")
    assert not sim.reachable(INTERNET, "operational_zone_a")  # cut off behind it
    step_with(sim, {"blue_restricted_a": ("BlockTrafficZone", INTERNET)})
    assert sim.blue_agents["blue_restricted_a"].last_success == FALSE  # already blocked
    step_with(sim, {"blue_restricted_a": ("AllowTrafficZone", INTERNET)})
    assert sim.reachable("contractor_uav", "restricted_zone_a")
    step_with(sim, {"blue_restricted_a": ("BlockTrafficZone", "restricted_zone_a")})
    assert sim.blue_agents["blue_restricted_a"].last_success == FALSE  # own zone


# ---------------------------------------------------------------------------
# background processes


def test_phishing_spawns_non_anchor_agents_on_user_hosts(quiet):
    quiet(PHISHING_P=1.0)
    sim = ScenarioSim(quiet_config(), seed=25)
    sleep_step(sim)
    spawned = [a for a in sim.red_agents if a is not None and not a.anchor]
    assert len(spawned) == RED_SLOTS - 1  # every free slot fills
    zones_hit = [a.zone for a in spawned]
    assert len(set(zones_hit)) == len(zones_hit)  # one agent per zone
    for agent in spawned:
        assert not sim.topology.hosts[agent.entry_host].server
        assert agent.sessions == {agent.entry_host: USER_LEVEL}
    expected_zones = [z for z in HOST_ZONES if z != "contractor_uav"]
    assert zones_hit == expected_zones[: len(zones_hit)]


def only_green(sim: ScenarioSim, green: str, service: str):
    """Leave `green` the only green host and `service` the only service."""
    sim._greens = [(green, sim.topology.hosts[green].zone, sim.hosts[green])]
    sim._service_table = [(service, sim.topology.hosts[service].zone, sim.hosts[service])]


def test_green_access_failure_is_charged_to_the_service_zone(quiet):
    quiet(GREEN_LOCAL_WORK_P=0.0)
    sim = ScenarioSim(quiet_config(), seed=26)
    green = sim.topology.hosts_by_zone["operational_zone_a"][-1]
    service = sim.topology.hosts_by_zone["restricted_zone_b"][0]
    only_green(sim, green, service)
    sim.hosts[service].degraded = True
    events = []
    sim._run_greens(events)
    assert events == [StepEvent("Restricted Zone B", ACCESS_SERVICE_FAILS)]

    sim.hosts[service].degraded = False
    sim.blocked.add(tuple(sorted((INTERNET, "restricted_zone_b"))))
    sim._reach_dirty = True
    events = []
    sim._run_greens(events)
    assert events == [StepEvent("Restricted Zone B", ACCESS_SERVICE_FAILS)]


def test_green_access_to_compromised_service_can_spread_red(quiet):
    quiet(GREEN_LOCAL_WORK_P=0.0, SERVICE_SPAWN_P=1.0)
    sim = ScenarioSim(quiet_config(), seed=27)
    red = anchor(sim)
    green = sim.topology.hosts_by_zone["operational_zone_b"][-1]
    only_green(sim, green, red.entry_host)
    events = []
    sim._run_greens(events)
    assert events == []  # the service still works; the damage is silent
    spawned = [a for a in sim.red_agents if a is not None and a.zone == "operational_zone_b"]
    assert len(spawned) == 1
    assert spawned[0].entry_host == green


def test_degraded_user_host_fails_local_work_every_step():
    sim = ScenarioSim(quiet_config(), seed=28)
    victim = user_hosts(sim.topology)[0]
    zone_label = REWARD_ZONE_OF[sim.topology.hosts[victim].zone]
    sim.hosts[victim].degraded = True
    for _ in range(3):
        result = sleep_step(sim)
        assert result.events == [StepEvent(zone_label, LOCAL_WORK_FAILS)]


# ---------------------------------------------------------------------------
# observations and contexts


def test_red_sees_only_known_hosts():
    sim = ScenarioSim(quiet_config(), seed=29)
    red = anchor(sim)
    sleep_step(sim)
    obs = observe(sim, "red_0")
    assert obs.connections == len(red.known) == 1
    assert obs.n_servers == int(sim.topology.hosts[red.entry_host].server)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "contractor_uav")})
    sleep_step(sim)
    obs = observe(sim, "red_0")
    assert obs.connections == len(red.known) > 1
    assert obs.n_servers == len(sim.topology.servers_in("contractor_uav"))
    assert obs.n_servers < sum(1 for h in sim.topology.hosts.values() if h.server)


def test_red_observation_reflects_scans_and_privilege():
    sim = ScenarioSim(quiet_config(), seed=30)
    red = anchor(sim)
    entry = red.entry_host
    step_with(sim, {"red_0": ("AggressiveServiceDiscovery", entry)})
    obs = observe(sim, "red_0")
    assert red.last_success == TRUE
    assert (obs.connections, obs.files_user) == (1, 1)
    assert (obs.files_root, obs.root_access_levels) == (0, 0)
    red.set_session(entry, ROOT_LEVEL)
    obs = observe(sim, "red_0")  # read when asked, so it sees the new root
    assert (obs.connections, obs.files_user) == (1, 1)
    assert (obs.files_root, obs.root_access_levels) == (1, 1)


def test_blue_observation_covers_every_host():
    sim = ScenarioSim(quiet_config(), seed=31)
    sleep_step(sim)
    n_servers = sum(1 for h in sim.topology.hosts.values() if h.server)
    for name in sim.blue_agents:
        obs = observe(sim, name)
        assert obs.n_servers == n_servers
        assert (obs.connections, obs.files_user, obs.files_root) == (0, 0, 0)
        assert obs.root_access_levels == 0


def test_blue_green_failures_counter_is_zone_local():
    sim = ScenarioSim(quiet_config(), seed=32)
    victim = next(
        h for h in user_hosts(sim.topology)
        if sim.topology.hosts[h].zone == "operational_zone_a"
    )
    sim.hosts[victim].degraded = True
    sleep_step(sim)
    assert sim.agent_context("blue_operational_a").counters()["zone_failures"] == 1
    assert sim.agent_context("blue_restricted_b").counters()["zone_failures"] == 0


def test_red_context_partitions_known_hosts_by_session_level():
    sim = ScenarioSim(quiet_config(), seed=33)
    red = anchor(sim)
    step_with(sim, {"red_0": ("DiscoverRemoteSystems", "contractor_uav")})
    entry = red.entry_host
    other = next(h for h in red.known if h != entry)
    red.sessions[other] = ROOT_LEVEL
    context = sim.agent_context("red_0")
    assert context.targets("PrivilegeEscalate") == [entry]
    assert context.targets("Impact") == [other]
    assert context.targets("DegradeServices") == [other]
    assert set(context.targets("ExploitRemoteService")) == set(red.known) - {entry, other}
    assert context.targets("DiscoverDeception") == red.known
    assert context.counters()["root_sessions"] == 1
    assert context.counters()["user_sessions"] == 0  # the entry foothold is not counted


def test_blue_context_orders_flagged_hosts_by_first_flag():
    sim = ScenarioSim(quiet_config(), seed=34)
    agent = sim.blue_agents["blue_restricted_a"]
    context = sim.agent_context("blue_restricted_a")
    assert context.targets("Analyse") == list(agent.zone_hosts)  # nothing flagged yet
    early, late = agent.zone_hosts[2], agent.zone_hosts[0]
    sim.hosts[early].flagged_step = 3
    sim.hosts[late].flagged_step = 5
    context = sim.agent_context("blue_restricted_a")
    assert context.targets("Analyse") == [early, late]
    assert context.targets("BlockTrafficZone") == [z for z in ZONES if z not in agent.zones]


def test_success_flag_starts_unknown():
    sim = ScenarioSim(quiet_config(), seed=35)
    assert observe(sim, "red_0").success == UNKNOWN
    assert observe(sim, "blue_hq").success == UNKNOWN
