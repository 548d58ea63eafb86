"""Step-based simulation of the four-network defense scenario.

One `ScenarioSim` owns the full network state and advances it one step
at a time.  Controllers never touch the state directly: they receive an
`AgentContext` and answer with an action name and a target heuristic.
Everything stochastic flows through the episode scenario stream, so
identical seeds replay identical trajectories.

The decision context computes nothing up front.  A rule controller asks
it for the agent's observation, a matrix controller's classifier asks it
for counters, and the episode runner asks it for the candidate targets
of the one action chosen, so each decision pays only for what its
controller reads.  What those reads need is kept current rather than
recounted: each red agent keeps its root-session and known-server
counts, which change only through its session methods and `learn`, and
blue's three observations, one per success flag, are built once, at
set-up and at the end of each `step`.  Zone-action targets are kept
too: each blue agent's are fixed, and red's are rebuilt with the routes.

Step order is fixed for determinism: submissions are enqueued, blue
agents before red ones; each agent, in the same order, ticks its pending
action down and applies it if it completes, so blue completions apply
before red ones (no handler reads a pending action, so this is ticking
every agent first); the red team's automatic spawns roll, green users
act, rewards are scored and blue's shared counts are recomputed.

The green users' draws are part of the seed contract.  The service
table lists one entry per service the network offers, in topology order,
so a host appears once for each service it runs.  Each green host, in
topology order, draws one `random()` to choose local work; otherwise it
draws `integers(len(table))`, an index into the service table, again
until the service is not on its own host, and an access that reaches a
compromised host draws one more `random()` for a red spawn.  The
service draw runs Lemire's rejection loop inline on
`ScalarStream.next_half`, with the table's span and threshold taken once
per step, and gives exactly `integers(len(table))`; a table of one entry
draws nothing.  The two probability draws, like each zone's phishing
roll, are compared as raw words: `ScalarStream.next_word()` against the
probability's `seeds.word_cut`, which reads the same word and gives the
same answer as `random() < p`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from ..errors import ControllerError, SimulationFault
from ..seeds import (
    LOW32,
    STREAM_TOPOLOGY,
    ScalarStream,
    derive_seed,
    lemire_threshold,
    spawn_stream,
    word_cut,
)
from . import actions as act
from .config import ScenarioConfig
from .observations import FALSE, TRUE, UNKNOWN, Observation
from .rewards import (
    ACCESS_SERVICE_FAILS,
    LOCAL_WORK_FAILS,
    RED_IMPACT_ACCESS,
    RewardTable,
    StepEvent,
    phase_of,
    reward_for,
)
from .topology import (
    HOST_ZONES,
    REWARD_ZONE_OF,
    ZONES,
    generate_topology,
    zone_reachable,
)

NO_COMPROMISE = 0
USER_LEVEL = 1
ROOT_LEVEL = 2

DETECT_SCAN = "scan"
DETECT_EXPLOIT = "exploit"
DETECT_DECOY = "decoy"

# Every zone's reachable zones while no edge is blocked, and each zone's
# red zone-action targets: those zones in `ZONES` order.  `_routes`
# replaces both tables rather than mutating them, so all episodes share
# them.
_OPEN_ROUTES = zone_reachable(set())


def _zone_targets(routes: dict[str, frozenset[str]]) -> dict[str, list[str]]:
    return {a: [z for z in ZONES if z in reach] for a, reach in routes.items()}


_OPEN_ZONE_TARGETS = _zone_targets(_OPEN_ROUTES)

# What a one-entry service table draws from: `integers(1)` draws nothing.
_NO_HALVES = repeat(0).__next__

_TARGET_KINDS = act.TARGET_KINDS

# The green failures, one shared event per (zone, kind).
_GREEN_FAILURES = {
    (zone, kind): StepEvent(REWARD_ZONE_OF[zone], kind)
    for zone in ZONES for kind in (LOCAL_WORK_FAILS, ACCESS_SERVICE_FAILS)
}

# The scenario's fixed structure.  Red has `RED_SLOTS` agent slots, named
# `red_<slot>`; blue agent `i` is entry `i` of `BLUE_AGENT_ZONES`.
# An agent's slot picks its controller in a one-per-agent team.
RED_SLOTS = 6
_RED_SLOT_OF = {f"red_{slot}": slot for slot in range(RED_SLOTS)}
BLUE_AGENT_ZONES = (
    ("blue_restricted_a", ("restricted_zone_a",)),
    ("blue_operational_a", ("operational_zone_a",)),
    ("blue_restricted_b", ("restricted_zone_b",)),
    ("blue_operational_b", ("operational_zone_b",)),
    ("blue_hq", ("public_access_zone", "admin_zone", "office_network")),
)
# The event probabilities, per attempt; phishing's is per zone per step.
EXPLOIT_SCANNED_P = 0.8
EXPLOIT_UNSCANNED_P = 0.3
ESCALATE_P = 0.8
PHISHING_P = 0.02
DECOY_TRIP_P = 1.0
SCAN_DETECT_AGGRESSIVE_P = 0.9
SCAN_DETECT_STEALTH_P = 0.3
GREEN_LOCAL_WORK_P = 0.5
SERVICE_SPAWN_P = 0.25


@lru_cache(maxsize=None)
def _reward_table() -> RewardTable:
    """The packaged reward table, read on first use."""
    return RewardTable.default()


def team_size(side: str, controllers_per_team: str) -> int:
    """Controllers in a team: one shared by the side, or one per agent slot."""
    if controllers_per_team == "one":
        return 1
    if controllers_per_team == "many":
        return RED_SLOTS if side == act.RED else len(BLUE_AGENT_ZONES)
    raise ControllerError(f"controllers_per_team must be 'one' or 'many', not {controllers_per_team!r}")


class HostRuntime:
    """Mutable per-host state layered over the static topology."""

    __slots__ = (
        "degraded", "decoy", "restoring", "red_level",
        "flagged_step", "confirmed_step",
        "files_user_evidence", "files_root_evidence",
    )

    def __init__(self):
        self.degraded = False
        self.decoy = False
        self.restoring = False
        self.red_level = NO_COMPROMISE
        self.flagged_step: int | None = None
        self.confirmed_step: int | None = None
        self.files_user_evidence = 0
        self.files_root_evidence = 0

    def clear_evidence(self):
        self.flagged_step = None
        self.confirmed_step = None
        self.files_user_evidence = 0
        self.files_root_evidence = 0


class RedAgent:
    """One red agent's sessions and knowledge.

    ``roots`` counts the root sessions and ``known_servers`` the known
    hosts that are among ``servers``, the topology's servers.  Both are
    kept current, so every change to ``sessions`` goes through
    `set_session` or `drop_session`, and every new host through `learn`.
    """

    side = act.RED
    __slots__ = (
        "name", "slot", "zone", "entry_host", "anchor", "sessions",
        "known", "known_set", "scanned", "decoys_known",
        "pending", "last_success", "last_discovery_step",
        "servers", "roots", "known_servers",
    )

    def __init__(self, name: str, slot: int, zone: str, entry_host: str, anchor: bool,
                 servers: frozenset[str] = frozenset()):
        self.name = name
        self.slot = slot
        self.zone = zone
        self.entry_host = entry_host
        self.anchor = anchor
        self.sessions: dict[str, int] = {entry_host: USER_LEVEL}
        self.known: list[str] = [entry_host]
        self.known_set = {entry_host}
        self.scanned: set[str] = set()
        self.decoys_known: set[str] = set()
        self.pending: tuple[str, str | None, int] | None = None
        self.last_success = UNKNOWN
        self.last_discovery_step = -1
        self.servers = servers
        self.roots = 0
        self.known_servers = 1 if entry_host in servers else 0

    def learn(self, host_id: str) -> bool:
        if host_id in self.known_set:
            return False
        self.known.append(host_id)
        self.known_set.add(host_id)
        if host_id in self.servers:
            self.known_servers += 1
        return True

    def set_session(self, host_id: str, level: int) -> None:
        """Hold a session of ``level`` on ``host_id``, a known host."""
        sessions = self.sessions
        if sessions.get(host_id) == ROOT_LEVEL:
            self.roots -= 1
        sessions[host_id] = level
        if level == ROOT_LEVEL:
            self.roots += 1

    def drop_session(self, host_id: str) -> None:
        """Lose the session held on ``host_id``."""
        if self.sessions.pop(host_id) == ROOT_LEVEL:
            self.roots -= 1


class BlueAgent:
    side = act.BLUE
    __slots__ = ("name", "slot", "zones", "home_host", "zone_hosts", "zone_states",
                 "zone_targets", "pending", "last_success", "monitor_step",
                 "analysed_clean_step")

    def __init__(self, name: str, slot: int, zones: tuple[str, ...], home_host: str,
                 zone_states: list[tuple[str, HostRuntime]]):
        self.name = name
        self.slot = slot
        self.zones = zones
        self.home_host = home_host
        # The hosts of the agent's zones, in topology order, and their state.
        self.zone_states = zone_states
        self.zone_hosts = [host_id for host_id, _ in zone_states]
        # Every zone outside the agent's own: its zone actions' targets.
        self.zone_targets = [z for z in ZONES if z not in zones]
        self.pending: tuple[str, str | None, int] | None = None
        self.last_success = UNKNOWN
        self.monitor_step = -1
        self.analysed_clean_step = -1


# The session level a session-bound red action's targets must hold, in
# known-host order; NO_COMPROMISE means a known host with no session.
# Every other red host action draws from everything the agent knows.
RED_TARGET_SESSIONS = {
    "PrivilegeEscalate": USER_LEVEL,
    "Impact": ROOT_LEVEL,
    "DegradeServices": ROOT_LEVEL,
    "ExploitRemoteService": NO_COMPROMISE,
}


class AgentContext:
    """One agent's decision context: a live view over the simulation state.

    Nothing is computed when the view is made, and the view keeps
    nothing itself.  `observation` gives what a rule program reads,
    `counters` the classifier's counters and `targets` the candidate
    list of one action; each reads the state when it is called, so one
    view answers for whichever step its agent is at.  The counts a red
    observation reads are kept by the agent, and blue's observations by
    the simulation (see the module doc).  The episode runner makes one
    view per agent object and keeps it all episode.  A returned list may
    be the agent's own or shared by every episode: never change it, and
    read it before the next `step()`, which may change it.
    """

    __slots__ = ("sim", "agent", "side")

    def __init__(self, sim: ScenarioSim, agent: RedAgent | BlueAgent):
        self.sim = sim
        self.agent = agent
        self.side = agent.side

    def observation(self) -> Observation:
        """The success flag and the five counts a rule program reads.

        A red agent's counts are read from the agent, which keeps them;
        blue agents share theirs, and the simulation builds blue's
        observation for each success flag at the end of each step.
        """
        agent = self.agent
        if self.side == act.BLUE:
            return self.sim._blue_observations[agent.last_success]
        # Sessions are always on known hosts, so they count directly.
        roots = agent.roots
        return tuple.__new__(Observation, (
            agent.last_success, len(agent.known), len(agent.sessions), roots,
            agent.known_servers, roots,
        ))

    def counters(self) -> dict[str, int]:
        """The counters the state classifier reads for this agent."""
        sim, agent = self.sim, self.agent
        last = sim._last_applied_step
        if self.side == act.RED:
            return {
                "known_hosts": len(agent.known),
                "discovery_events": 1 if agent.last_discovery_step == last else 0,
                "services_discovered": len(agent.scanned),
                "user_sessions": sum(
                    1 for h, lvl in agent.sessions.items()
                    if lvl == USER_LEVEL and not (h == agent.entry_host and agent.anchor)
                ),
                "root_sessions": sum(1 for lvl in agent.sessions.values() if lvl == ROOT_LEVEL),
            }
        zone_suspicious = 0
        for host_id, kind in sim._detections:
            if sim.topology.hosts[host_id].zone not in agent.zones:
                continue
            if kind == DETECT_DECOY or agent.monitor_step == last:
                zone_suspicious += 1
        hosts = [host for _, host in agent.zone_states]
        return {
            "zone_suspicious": zone_suspicious,
            "zone_failures": sum(sim._zone_failures.get(z, 0) for z in agent.zones),
            "flagged_suspicious": sum(
                1 for h in hosts if h.flagged_step is not None and h.confirmed_step is None
            ),
            "confirmed_compromised": sum(1 for h in hosts if h.confirmed_step is not None),
            "analysed_clean": 1 if agent.analysed_clean_step == last else 0,
        }

    def targets(self, action: str) -> list[str]:
        """Ordered candidate targets for a host or zone action.

        Red zone actions get the zones the agent's zone can reach, and
        red host actions the known hosts, narrowed by
        `RED_TARGET_SESSIONS`.  Blue zone actions get every zone outside
        the agent's own; blue host actions get its zone hosts, flagged
        ones only, by first flag, when any is flagged.
        """
        sim, agent = self.sim, self.agent
        if _TARGET_KINDS[action] == act.TARGET_ZONE:
            if self.side == act.RED:
                return sim._red_zone_targets()[agent.zone]
            return agent.zone_targets
        if self.side == act.RED:
            level = RED_TARGET_SESSIONS.get(action)
            if level is None:
                return agent.known
            return [h for h in agent.known if agent.sessions.get(h, NO_COMPROMISE) == level]
        flagged = []
        for position, (host_id, host) in enumerate(agent.zone_states):
            first = host.flagged_step
            if first is None:
                first = host.confirmed_step
            if first is not None:
                flagged.append((first, position, host_id))
        if not flagged:
            return agent.zone_hosts
        flagged.sort()
        return [host_id for _, _, host_id in flagged]


@dataclass
class StepResult:
    events: list[StepEvent]
    blue_reward: float  # red's is its negation


class ScenarioSim:
    """A single episode's network state and step function."""

    def __init__(self, config: ScenarioConfig, seed: int):
        self.config = config
        self.topology = generate_topology(derive_seed(seed, STREAM_TOPOLOGY), config.bounds)
        self.rng: ScalarStream = spawn_stream(seed)
        self.step_index = 0
        self.hosts: dict[str, HostRuntime] = {h: HostRuntime() for h in self.topology.hosts}
        self.blocked: set[tuple[str, str]] = set()
        self._reach = _OPEN_ROUTES
        self._reach_targets = _OPEN_ZONE_TARGETS
        self._reach_dirty = False
        self.red_agents: list[RedAgent | None] = [None] * RED_SLOTS
        self.blue_agents: dict[str, BlueAgent] = {}
        self._detections: list[tuple[str, str]] = []
        # Every host Analyse ever found evidence on: only they can hold any.
        self._analysed: set[HostRuntime] = set()
        self._zone_failures: dict[str, int] = {}
        self._last_applied_step = -1
        # The active agents in step order and their names, rebuilt when
        # red's roster changes.
        self._agents: list[RedAgent | BlueAgent] | None = None
        self._agent_names: frozenset[str] = frozenset()
        hosts = self.topology.hosts
        self._greens = [(h, host.zone, self.hosts[h]) for h, host in hosts.items() if not host.server]
        self._service_table = [
            (h, host.zone, self.hosts[h]) for h, host in hosts.items() for _ in range(host.services)
        ]
        # `next_word() < cut` is `random() < p` (see `seeds.word_cut`).
        self._local_work_cut = word_cut(GREEN_LOCAL_WORK_P)
        self._spawn_cut = word_cut(SERVICE_SPAWN_P)
        self._phishing_cut = word_cut(PHISHING_P)
        self._servers = frozenset(h for h, host in hosts.items() if host.server)
        self._spawn_initial_agents()
        self._count_blue_observations()

    # ------------------------------------------------------------------
    # setup

    def _spawn_initial_agents(self):
        contractor_hosts = self.topology.hosts_by_zone["contractor_uav"]
        entry = contractor_hosts[self.rng.integers(len(contractor_hosts))]
        self.red_agents[0] = RedAgent("red_0", 0, "contractor_uav", entry, anchor=True,
                                      servers=self._servers)
        self.hosts[entry].red_level = USER_LEVEL
        for slot, (name, zones) in enumerate(BLUE_AGENT_ZONES):
            home = self.topology.servers_in(zones[0])[0]
            states = [(h, self.hosts[h]) for z in zones for h in self.topology.hosts_by_zone[z]]
            self.blue_agents[name] = BlueAgent(name, slot, zones, home, states)

    # ------------------------------------------------------------------
    # queries used by the episode runner

    def _active_agents(self) -> list[RedAgent | BlueAgent]:
        """Blue agents, then active red agents in slot order: the step order."""
        agents = self._agents
        if agents is None:
            agents = self._agents = [
                *self.blue_agents.values(), *(a for a in self.red_agents if a is not None)
            ]
            self._agent_names = frozenset(a.name for a in agents)
        return agents

    def idle_agents(self) -> list[RedAgent | BlueAgent]:
        return [agent for agent in self._active_agents() if agent.pending is None]

    def _agent(self, name: str):
        agent = self.blue_agents.get(name)
        if agent is None:
            slot = _RED_SLOT_OF.get(name)
            agent = None if slot is None else self.red_agents[slot]
        if agent is None:
            raise SimulationFault(f"unknown agent {name!r}")
        return agent

    def _red_in_zone(self, zone: str) -> RedAgent | None:
        for agent in self.red_agents:
            if agent is not None and agent.zone == zone:
                return agent
        return None

    def _free_slot(self) -> int | None:
        for i, agent in enumerate(self.red_agents):
            if agent is None:
                return i
        return None

    def reachable(self, zone_a: str, zone_b: str) -> bool:
        return zone_b in self._routes()[zone_a]

    def _routes(self) -> dict[str, frozenset[str]]:
        """Every zone's reachable zones, less those it has a blocked edge to."""
        if self._reach_dirty:
            blocked = self.blocked
            self._reach = {
                a: frozenset(b for b in reach if self._zone_pair(a, b) not in blocked)
                for a, reach in zone_reachable(blocked).items()
            }
            self._reach_targets = _zone_targets(self._reach)
            self._reach_dirty = False
        return self._reach

    def _red_zone_targets(self) -> dict[str, list[str]]:
        """Each zone's `_routes` in `ZONES` order: red's zone-action targets."""
        self._routes()
        return self._reach_targets

    # ------------------------------------------------------------------
    # the step function

    def step(self, agent_actions: dict[str, tuple[str, str | None]]) -> StepResult:
        """Advance the simulation by one step.

        ``agent_actions`` maps agent name to (action, resolved target).
        Busy agents may be omitted or submit Sleep; anything else is a
        controller bug and raises `SimulationFault`.
        """
        if self.step_index >= self.config.steps:
            raise SimulationFault(f"episode already ran its {self.config.steps} steps")
        events: list[StepEvent] = []
        self._detections = []
        self._zone_failures = {}

        agents = self._active_agents()
        if not self._agent_names.issuperset(agent_actions):
            unknown = set(agent_actions).difference(self._agent_names)
            raise SimulationFault(f"actions submitted for unknown agents {sorted(unknown)}")
        for agent in agents:
            submission = agent_actions.get(agent.name)
            if submission is not None:
                self._submit(agent, submission)

        for agent in agents:
            pending = agent.pending
            if pending is None:
                continue
            action, target, remaining = pending
            if remaining > 1:
                agent.pending = (action, target, remaining - 1)
                continue
            agent.pending = None
            # Blue completions come first.  One of them may have evicted a
            # red agent; its in-flight action dies with it.
            if agent.side == act.BLUE or self.red_agents[agent.slot] is agent:
                self._apply(agent, action, target, events)

        self._roll_phishing()
        self._run_greens(events)

        phase = phase_of(self.step_index, self.config.phase_boundaries, self.config.steps)
        blue_reward = reward_for(events, phase, _reward_table())

        self._last_applied_step = self.step_index
        self.step_index += 1
        self._count_blue_observations()
        return StepResult(events, blue_reward)

    def _submit(self, agent: RedAgent | BlueAgent, submission: tuple[str, str | None]):
        action, target = submission
        if (agent.side, action) not in act.LEGAL:
            raise SimulationFault(
                f"{agent.name} submitted illegal action {action!r} for side {agent.side}"
            )
        if agent.pending is not None:
            if action == "Sleep":
                return
            raise SimulationFault(f"{agent.name} submitted {action} while busy")
        kind = _TARGET_KINDS[action]
        if kind == act.TARGET_NONE:
            if target is not None:
                raise SimulationFault(f"{action} takes no target, got {target!r}")
        elif target is not None:
            if kind == act.TARGET_HOST and target not in self.topology.hosts:
                raise SimulationFault(f"{action} target {target!r} is not a host")
            if kind == act.TARGET_ZONE and target not in ZONES:
                raise SimulationFault(f"{action} target {target!r} is not a zone")
        if target is None and kind != act.TARGET_NONE:
            # An unresolvable target degrades the action to a one-step no-op.
            agent.pending = (action, None, 1)
        else:
            agent.pending = (action, target, act.DEFAULT_DURATIONS[action])
            if action == "Restore":
                # The machine is offline for the whole reimaging window.
                self.hosts[target].restoring = True

    def _apply(self, agent: RedAgent | BlueAgent, action: str, target: str | None, events: list[StepEvent]):
        if target is None and _TARGET_KINDS[action] != act.TARGET_NONE:
            agent.last_success = FALSE
        elif action == "Sleep":
            agent.last_success = TRUE
        else:
            handler = _HANDLERS[agent.side][action]
            agent.last_success = TRUE if handler(self, agent, target, events) else FALSE

    # ------------------------------------------------------------------
    # blue action semantics

    def _blue_monitor(self, agent: BlueAgent, target, events) -> bool:
        agent.monitor_step = self.step_index
        return True

    def _blue_analyse(self, agent: BlueAgent, target, events) -> bool:
        if self.topology.hosts[target].zone not in agent.zones:
            return False
        host = self.hosts[target]
        if host.red_level >= USER_LEVEL:
            host.files_user_evidence = 1
            host.files_root_evidence = 1 if host.red_level == ROOT_LEVEL else 0
            host.confirmed_step = self.step_index
            self._analysed.add(host)
        else:
            host.clear_evidence()
            agent.analysed_clean_step = self.step_index
        return True

    def _blue_deploydecoy(self, agent: BlueAgent, target, events) -> bool:
        if self.topology.hosts[target].zone not in agent.zones:
            return False
        host = self.hosts[target]
        if host.decoy:
            return False
        host.decoy = True
        return True

    def _blue_remove(self, agent: BlueAgent, target, events) -> bool:
        if self.topology.hosts[target].zone not in agent.zones:
            return False
        host = self.hosts[target]
        removed = False
        for red in self.red_agents:
            if red is None or red.sessions.get(target) != USER_LEVEL:
                continue
            if red.anchor and target == red.entry_host:
                continue
            red.drop_session(target)
            removed = True
        self._recompute_level(target)
        self._deactivate_empty_agents()
        if self.hosts[target].red_level == NO_COMPROMISE:
            host.clear_evidence()
        return removed and self.hosts[target].red_level == NO_COMPROMISE

    def _blue_restore(self, agent: BlueAgent, target, events) -> bool:
        host = self.hosts[target]
        host.restoring = False  # the reimaging window ends, done or refused
        if self.topology.hosts[target].zone not in agent.zones:
            return False
        for red in self.red_agents:
            if red is None or target not in red.sessions:
                continue
            if red.anchor and target == red.entry_host:
                # The contractor foothold survives any cleanup.
                red.set_session(target, USER_LEVEL)
                continue
            red.drop_session(target)
        self._recompute_level(target)
        self._deactivate_empty_agents()
        host.degraded = False
        host.decoy = False
        host.clear_evidence()
        return True

    def _blue_blocktrafficzone(self, agent: BlueAgent, target, events) -> bool:
        if target in agent.zones:
            return False
        pair = self._zone_pair(agent.zones[0], target)
        if pair in self.blocked:
            return False
        self.blocked.add(pair)
        self._reach_dirty = True
        return True

    def _blue_allowtrafficzone(self, agent: BlueAgent, target, events) -> bool:
        pair = self._zone_pair(agent.zones[0], target)
        if pair not in self.blocked:
            return False
        self.blocked.discard(pair)
        self._reach_dirty = True
        return True

    @staticmethod
    def _zone_pair(zone_a: str, zone_b: str) -> tuple[str, str]:
        return (zone_a, zone_b) if zone_a < zone_b else (zone_b, zone_a)

    # ------------------------------------------------------------------
    # red action semantics

    def _red_discoverremotesystems(self, agent: RedAgent, target, events) -> bool:
        if not self.reachable(agent.zone, target):
            return False
        found = False
        for host_id in self.topology.hosts_by_zone[target]:
            found = agent.learn(host_id) or found
        if found:
            agent.last_discovery_step = self.step_index
        return True

    def _scan(self, agent: RedAgent, target: str, detect_p: float) -> bool:
        if target not in agent.known_set:
            return False
        if not self.reachable(agent.zone, self.topology.hosts[target].zone):
            return False
        if target not in agent.scanned:
            agent.scanned.add(target)
            agent.last_discovery_step = self.step_index
        if self.rng.random() < detect_p:
            self._record_detection(target, DETECT_SCAN)
        return True

    def _red_aggressiveservicediscovery(self, agent: RedAgent, target, events) -> bool:
        return self._scan(agent, target, SCAN_DETECT_AGGRESSIVE_P)

    def _red_stealthservicediscovery(self, agent: RedAgent, target, events) -> bool:
        return self._scan(agent, target, SCAN_DETECT_STEALTH_P)

    def _red_exploitremoteservice(self, agent: RedAgent, target, events) -> bool:
        if target not in agent.known_set:
            return False
        target_zone = self.topology.hosts[target].zone
        if not self.reachable(agent.zone, target_zone):
            return False
        host = self.hosts[target]
        if host.decoy and self.rng.random() < DECOY_TRIP_P:
            self._record_detection(target, DETECT_DECOY)
            return False
        p = EXPLOIT_SCANNED_P if target in agent.scanned else EXPLOIT_UNSCANNED_P
        if self.rng.random() >= p:
            # A failed exploit is noisy and may be spotted.
            if self.rng.random() < SCAN_DETECT_AGGRESSIVE_P:
                self._record_detection(target, DETECT_EXPLOIT)
            return False
        if self.rng.random() < SCAN_DETECT_STEALTH_P:
            self._record_detection(target, DETECT_EXPLOIT)
        if target_zone == agent.zone:
            agent.set_session(target, max(agent.sessions.get(target, 0), USER_LEVEL))
            self._recompute_level(target)
            return True
        return self._hand_red_session(target_zone, target)

    def _red_privilegeescalate(self, agent: RedAgent, target, events) -> bool:
        if agent.sessions.get(target) != USER_LEVEL:
            return False
        if self.rng.random() >= ESCALATE_P:
            return False
        agent.set_session(target, ROOT_LEVEL)
        self._recompute_level(target)
        events.append(StepEvent(REWARD_ZONE_OF[self.topology.hosts[target].zone], RED_IMPACT_ACCESS))
        return True

    def _red_degradeservices(self, agent: RedAgent, target, events) -> bool:
        if agent.sessions.get(target) != ROOT_LEVEL:
            return False
        self.hosts[target].degraded = True
        return True

    def _red_discoverdeception(self, agent: RedAgent, target, events) -> bool:
        if target not in agent.known_set:
            return False
        if self.hosts[target].decoy:
            agent.decoys_known.add(target)
            return True
        return False

    def _red_impact(self, agent: RedAgent, target, events) -> bool:
        if agent.sessions.get(target) != ROOT_LEVEL:
            return False
        events.append(StepEvent(REWARD_ZONE_OF[self.topology.hosts[target].zone], RED_IMPACT_ACCESS))
        return True

    def _red_withdraw(self, agent: RedAgent, target, events) -> bool:
        if target not in agent.sessions:
            return False
        if agent.anchor and target == agent.entry_host:
            return False
        agent.drop_session(target)
        self._recompute_level(target)
        self._deactivate_empty_agents()
        return True

    # ------------------------------------------------------------------
    # background processes

    def _spawn_red(self, slot: int, zone: str, entry_host: str):
        agent = RedAgent(f"red_{slot}", slot, zone, entry_host, anchor=False,
                         servers=self._servers)
        self.red_agents[slot] = agent
        self._agents = None
        self.hosts[entry_host].red_level = max(self.hosts[entry_host].red_level, USER_LEVEL)

    def _roll_phishing(self):
        word, cut = self.rng.next_word, self._phishing_cut
        for zone in HOST_ZONES:
            if word() >= cut:
                continue
            if self._red_in_zone(zone) is not None:
                continue
            slot = self._free_slot()
            if slot is None:
                continue
            users = [h for h in self.topology.hosts_by_zone[zone] if not self.topology.hosts[h].server]
            entry = users[self.rng.integers(len(users))]
            self._spawn_red(slot, zone, entry)

    def _run_greens(self, events: list[StepEvent]):
        """Each green host works locally or uses a service (see the module doc)."""
        rng = self.rng
        word = rng.next_word
        local_work_cut, spawn_cut = self._local_work_cut, self._spawn_cut
        table, routes = self._service_table, self._routes()
        span = len(table)
        threshold = lemire_threshold(span)
        half = rng.next_half if span > 1 else _NO_HALVES
        for host_id, zone, host in self._greens:
            if word() < local_work_cut:
                if host.degraded or host.restoring:
                    self._green_failure(zone, LOCAL_WORK_FAILS, events)
                continue
            # `integers(span)` (see `ScalarStream`), again while the
            # service is on the green's own host.
            while True:
                product = half() * span
                if product & LOW32 >= threshold:
                    target, target_zone, target_state = table[product >> 32]
                    if target != host_id:
                        break
            if target_zone not in routes[zone] or target_state.degraded or target_state.restoring:
                # Failed service access is charged to the zone offering the service.
                self._green_failure(target_zone, ACCESS_SERVICE_FAILS, events)
            elif target_state.red_level >= USER_LEVEL and word() < spawn_cut:
                # A green host that used a compromised service hands red a session.
                self._hand_red_session(zone, host_id)

    def _hand_red_session(self, zone: str, host_id: str) -> bool:
        """Give red a user session on ``host_id`` in ``zone``.

        The zone's resident red agent takes it and learns the host;
        failing that, a new agent spawns into a free slot.  False when
        every slot is taken.
        """
        resident = self._red_in_zone(zone)
        if resident is not None:
            if host_id not in resident.sessions:  # a held session is known and counted
                resident.learn(host_id)
                resident.set_session(host_id, USER_LEVEL)
                self._recompute_level(host_id)
            return True
        slot = self._free_slot()
        if slot is None:
            return False
        self._spawn_red(slot, zone, host_id)
        return True

    def _green_failure(self, zone: str, kind: str, events: list[StepEvent]):
        events.append(_GREEN_FAILURES[zone, kind])
        self._zone_failures[zone] = self._zone_failures.get(zone, 0) + 1

    # ------------------------------------------------------------------
    # shared bookkeeping

    def _recompute_level(self, host_id: str):
        level = NO_COMPROMISE
        for red in self.red_agents:
            if red is not None and host_id in red.sessions:
                level = max(level, red.sessions[host_id])
        self.hosts[host_id].red_level = level

    def _deactivate_empty_agents(self):
        for i, red in enumerate(self.red_agents):
            if red is not None and not red.anchor and not red.sessions:
                self.red_agents[i] = None
                self._agents = None

    def _record_detection(self, host_id: str, kind: str):
        self._detections.append((host_id, kind))
        zone = self.topology.hosts[host_id].zone
        if kind == DETECT_DECOY or self._zone_monitored(zone, self.step_index):
            self.hosts[host_id].flagged_step = self.step_index

    def _zone_monitored(self, zone: str, step: int) -> bool:
        for agent in self.blue_agents.values():
            if zone in agent.zones:
                return agent.monitor_step == step
        return False

    # ------------------------------------------------------------------
    # observations and contexts

    def _count_blue_observations(self):
        """The counts every blue agent's observation shares (see `Observation`)."""
        last = self._last_applied_step
        scans = 0
        for host_id, kind in self._detections:
            if kind == DETECT_SCAN and self._zone_monitored(self.topology.hosts[host_id].zone, last):
                scans += 1
        files_user = files_root = 0
        for host in self._analysed:
            files_user += host.files_user_evidence
            files_root += host.files_root_evidence
        counts = (scans, files_user, files_root, len(self._servers), 0)
        new = tuple.__new__
        self._blue_observations = {
            TRUE: new(Observation, (TRUE, *counts)),
            FALSE: new(Observation, (FALSE, *counts)),
            UNKNOWN: new(Observation, (UNKNOWN, *counts)),
        }

    def agent_context(self, name: str) -> AgentContext:
        """A live view of one agent's decision context (see `AgentContext`)."""
        return AgentContext(self, self._agent(name))


# {action: handler} per side, for every legal action but Sleep: the
# handler of `Action` is `ScenarioSim._<side>_action`.
_HANDLERS = {
    side: {
        a: getattr(ScenarioSim, f"_{side}_{a.lower()}")
        for a in act.ACTIONS_BY_SIDE[side] if a != "Sleep"
    }
    for side in (act.BLUE, act.RED)
}
