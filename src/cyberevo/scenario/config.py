"""Scenario configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ScenarioConfigError
from .topology import TopologyBounds


@dataclass
class ScenarioConfig:
    """The scenario's tunable parameters: episode length, phases and
    topology bounds.

    The fixed structure is not configured here: the red slot count
    (``engine.RED_SLOTS``), the event probabilities (``engine.PHISHING_P``
    and its neighbours), the action durations
    (``actions.DEFAULT_DURATIONS``) and the reward table
    (``data/reward_table.json``) are package constants.
    """

    steps: int = 75
    phase_boundaries: tuple[int, int] = (25, 50)
    bounds: TopologyBounds = field(default_factory=TopologyBounds)

    def __post_init__(self):
        first, second = self.phase_boundaries
        if not 0 < first < second < self.steps:
            raise ScenarioConfigError(f"phase boundaries {self.phase_boundaries} invalid for {self.steps} steps")
