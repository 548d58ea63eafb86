"""Run full scenario episodes with controller teams on both sides.

A team is a sequence of controllers indexed by agent slot (see
``scenario.engine.team_size``).  A length-1 team is broadcast: every
agent of that side shares the single controller.  A controller decides
from the agent's decision context alone.  The target heuristic it
returns is resolved here, from the candidate list the same context gives
for the chosen action.  Every decision and target draw of an episode
comes from its controller stream, the `ScalarStream` of
``(seed, STREAM_CONTROLLER)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .controllers.base import Controller
from .controllers.rules import resolve_target
from .scenario.actions import TARGET_KINDS, TARGET_NONE
from .scenario.config import ScenarioConfig
from .scenario.engine import AgentContext, BlueAgent, RedAgent, ScenarioSim
from .seeds import STREAM_CONTROLLER, ScalarStream, spawn_stream

Team = Sequence[Controller]

# The actions that take no target.
_TARGETLESS = frozenset(a for a, kind in TARGET_KINDS.items() if kind == TARGET_NONE)


def controller_for(team: Team, agent: RedAgent | BlueAgent) -> Controller:
    """The controller that decides for ``agent``: the shared one, or its slot's."""
    if len(team) == 1:
        return team[0]
    return team[agent.slot]


def resolve_heuristic_target(
    action: str,
    heuristic: str,
    context: AgentContext,
    rng: ScalarStream,
) -> Optional[str]:
    """Turn a (action, heuristic) decision into a concrete target."""
    if action in _TARGETLESS:
        return None
    return resolve_target(heuristic, context.targets(action), rng)


@dataclass(frozen=True)
class EpisodeResult:
    """Blue's total and per-step rewards for one episode; red's are their negations."""

    blue_total: float
    blue_rewards: tuple[float, ...]


def run_episode(
    config: ScenarioConfig,
    seed: int,
    blue_team: Team,
    red_team: Team,
) -> EpisodeResult:
    """Simulate one episode and return blue's summed rewards."""
    sim = ScenarioSim(config, seed)
    rng = spawn_stream(seed, STREAM_CONTROLLER)
    blue_rewards: list[float] = []
    teams = {"blue": blue_team, "red": red_team}
    # Each agent's controller and live decision view, made when the agent
    # is first idle.  Keyed by the agent object, not its name: a red
    # agent that respawns into a freed slot is a new agent.
    deciders: dict[RedAgent | BlueAgent, tuple[Controller, AgentContext]] = {}
    for _ in range(config.steps):
        submissions: dict[str, tuple[str, Optional[str]]] = {}
        for agent in sim.idle_agents():
            name = agent.name
            decider = deciders.get(agent)
            if decider is None:
                decider = deciders[agent] = (
                    controller_for(teams[agent.side], agent), sim.agent_context(name)
                )
            controller, context = decider
            action, heuristic = controller.decide(context, rng)
            if action in _TARGETLESS:  # skip the resolver's call for a sure None
                submissions[name] = (action, None)
            else:
                submissions[name] = (
                    action, resolve_heuristic_target(action, heuristic, context, rng)
                )
        blue_rewards.append(sim.step(submissions).blue_reward)
    return EpisodeResult(
        blue_total=float(sum(blue_rewards)),
        blue_rewards=tuple(blue_rewards),
    )
