"""Zero-sum reward bookkeeping.

The reward table maps (mission phase, zone, event kind) to a non-positive
penalty from the blue team's point of view.  Red receives the exact
negation, so an episode is zero-sum by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from ..errors import ScenarioConfigError

PHASE1 = "phase1"
PHASE2A = "phase2a"
PHASE2B = "phase2b"
PHASES = (PHASE1, PHASE2A, PHASE2B)

LOCAL_WORK_FAILS = "LocalWorkFails"
ACCESS_SERVICE_FAILS = "AccessServiceFails"
RED_IMPACT_ACCESS = "RedImpactAccess"
EVENT_KINDS = (LOCAL_WORK_FAILS, ACCESS_SERVICE_FAILS, RED_IMPACT_ACCESS)

REWARD_ZONES = (
    "HQ Network",
    "Contractor Network",
    "Restricted Zone A",
    "Operational Zone A",
    "Restricted Zone B",
    "Operational Zone B",
    "Internet",
)


@dataclass(frozen=True)
class StepEvent:
    """One penalty-relevant occurrence during a step."""

    zone: str
    kind: str


def phase_of(step: int, boundaries: tuple[int, int], total_steps: int) -> str:
    """Return the mission phase a step index falls into.

    Boundaries are the first steps of the second and third phases.
    """
    if not 0 <= step < total_steps:
        raise ScenarioConfigError(f"step {step} outside episode of {total_steps} steps")
    first, second = boundaries
    if not 0 < first < second < total_steps:
        raise ScenarioConfigError(f"phase boundaries {boundaries} must be increasing and interior")
    if step < first:
        return PHASE1
    if step < second:
        return PHASE2A
    return PHASE2B


class RewardTable:
    """(phase, zone, event kind) -> penalty lookup with validated shape."""

    def __init__(self, cells: dict[str, dict[str, dict[str, float]]]):
        for phase in PHASES:
            if phase not in cells:
                raise ScenarioConfigError(f"reward table missing phase {phase!r}")
            for zone in REWARD_ZONES:
                if zone not in cells[phase]:
                    raise ScenarioConfigError(f"reward table missing zone {zone!r} in {phase}")
                for kind in EVENT_KINDS:
                    value = cells[phase][zone].get(kind)
                    if value is None:
                        raise ScenarioConfigError(f"reward table missing {kind!r} for {zone!r} in {phase}")
                    if value > 0:
                        raise ScenarioConfigError(f"reward table cell ({phase},{zone},{kind}) must be <= 0, got {value}")
        self._cells = cells

    def lookup(self, phase: str, zone: str, kind: str) -> float:
        try:
            return self._cells[phase][zone][kind]
        except KeyError as exc:
            raise ScenarioConfigError(f"unknown reward cell ({phase!r}, {zone!r}, {kind!r})") from exc

    @classmethod
    def default(cls) -> "RewardTable":
        text = resources.files("cyberevo.scenario").joinpath("data/reward_table.json").read_text()
        return cls(json.loads(text))


def reward_for(events: list[StepEvent], phase: str, table: RewardTable) -> float:
    """Score one step's events: blue's reward, whose negation is red's."""
    blue = 0.0
    for event in events:
        blue += table.lookup(phase, event.zone, event.kind)
    return blue
