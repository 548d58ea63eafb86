"""Scenario configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..errors import ScenarioConfigError
from . import actions
from .rewards import RewardTable
from .topology import TopologyBounds


@dataclass
class ScenarioConfig:
    """All tunable scenario parameters.

    Probabilities are per attempt; ``phishing_p`` is per zone per step.
    """

    steps: int = 75
    phase_boundaries: tuple[int, int] = (25, 50)
    bounds: TopologyBounds = field(default_factory=TopologyBounds)
    red_slots: int = 6
    exploit_scanned_p: float = 0.8
    exploit_unscanned_p: float = 0.3
    escalate_p: float = 0.8
    phishing_p: float = 0.02
    decoy_trip_p: float = 1.0
    scan_detect_aggressive_p: float = 0.9
    scan_detect_stealth_p: float = 0.3
    green_local_work_p: float = 0.5
    service_spawn_p: float = 0.25
    durations: dict[str, int] = field(default_factory=lambda: dict(actions.DEFAULT_DURATIONS))
    reward_table: RewardTable = field(default_factory=RewardTable.default)

    def __post_init__(self):
        first, second = self.phase_boundaries
        if not 0 < first < second < self.steps:
            raise ScenarioConfigError(f"phase boundaries {self.phase_boundaries} invalid for {self.steps} steps")
        for name in (
            "exploit_scanned_p", "exploit_unscanned_p", "escalate_p", "phishing_p",
            "decoy_trip_p", "scan_detect_aggressive_p", "scan_detect_stealth_p",
            "green_local_work_p", "service_spawn_p",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ScenarioConfigError(f"{name}={p} is not a probability")
        for action, duration in self.durations.items():
            if action not in actions.TARGET_KINDS:
                raise ScenarioConfigError(f"duration given for unknown action {action!r}")
            if duration < 1:
                raise ScenarioConfigError(f"duration for {action} must be >= 1")

    def duration_of(self, action: str) -> int:
        return self.durations.get(action, 1)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["bounds"] = {
            "servers": list(self.bounds.servers),
            "user_hosts": list(self.bounds.user_hosts),
            "services": list(self.bounds.services),
        }
        data["phase_boundaries"] = list(self.phase_boundaries)
        data["reward_table"] = self.reward_table.as_dict()
        return data
