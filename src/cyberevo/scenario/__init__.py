"""Discrete-step cyber-defense scenario simulation."""

from .actions import (
    BLUE_ACTIONS,
    DEFAULT_DURATIONS,
    GREEN_ACTIONS,
    RED_ACTIONS,
    TARGET_KINDS,
    is_legal,
)
from .config import ScenarioConfig
from .engine import AgentContext, ScenarioSim, StepResult
from .observations import FALSE, TRUE, UNKNOWN, Observation
from .rewards import (
    EVENT_KINDS,
    REWARD_ZONES,
    RewardTable,
    StepEvent,
    phase_of,
    reward_for,
)
from .topology import Topology, TopologyBounds, ZONES, generate_topology, zone_reachable

__all__ = [
    "AgentContext",
    "BLUE_ACTIONS",
    "DEFAULT_DURATIONS",
    "EVENT_KINDS",
    "FALSE",
    "GREEN_ACTIONS",
    "Observation",
    "RED_ACTIONS",
    "REWARD_ZONES",
    "RewardTable",
    "ScenarioConfig",
    "ScenarioSim",
    "StepEvent",
    "StepResult",
    "TARGET_KINDS",
    "TRUE",
    "Topology",
    "TopologyBounds",
    "UNKNOWN",
    "ZONES",
    "generate_topology",
    "is_legal",
    "phase_of",
    "reward_for",
    "zone_reachable",
]
