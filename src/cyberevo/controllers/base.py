"""Controller interface shared by matrix and rule controllers.

A controller answers one question per decision: which action, and which
target heuristic.  Its one input is the agent's decision context, from
which it reads only what it needs: a rule controller the observation, a
matrix controller the classifier's counters.  The episode runner
resolves the heuristic into a concrete host or zone according to the
action's target kind.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..scenario.engine import AgentContext
from ..seeds import ScalarStream

RANDOM_TARGET = "random_target"
FIRST_TARGET = "first_target"
LAST_TARGET = "last_target"
TARGET_HEURISTICS = (RANDOM_TARGET, FIRST_TARGET, LAST_TARGET)


@runtime_checkable
class Controller(Protocol):
    side: str

    def decide(self, context: AgentContext, rng: ScalarStream) -> tuple[str, str]:
        """Return (action name, target heuristic name).

        ``rng`` is the episode's controller stream, shared by every
        decision and target resolution of the episode.
        """
        ...


class SleepController:
    """Does nothing, forever.  Useful as a neutral adversary and anchor."""

    def __init__(self, side: str):
        self.side = side

    def decide(self, context, rng) -> tuple[str, str]:
        return "Sleep", RANDOM_TARGET
