"""Scenario configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ScenarioConfigError
from .topology import TopologyBounds


@dataclass
class ScenarioConfig:
    """The scenario's tunable parameters: episode length, phases, topology
    bounds and event probabilities.

    Probabilities are per attempt; ``phishing_p`` is per zone per step.
    The fixed structure is not configured here: the red slot count
    (``engine.RED_SLOTS``), the action durations
    (``actions.DEFAULT_DURATIONS``) and the reward table
    (``data/reward_table.json``) are package constants.
    """

    steps: int = 75
    phase_boundaries: tuple[int, int] = (25, 50)
    bounds: TopologyBounds = field(default_factory=TopologyBounds)
    exploit_scanned_p: float = 0.8
    exploit_unscanned_p: float = 0.3
    escalate_p: float = 0.8
    phishing_p: float = 0.02
    decoy_trip_p: float = 1.0
    scan_detect_aggressive_p: float = 0.9
    scan_detect_stealth_p: float = 0.3
    green_local_work_p: float = 0.5
    service_spawn_p: float = 0.25

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
