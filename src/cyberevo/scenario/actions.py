"""Action vocabularies, target kinds and default durations.

Action name order matches the controller grammars so that grammar
terminals, matrix columns and the simulator agree on one vocabulary.
"""

from __future__ import annotations

RED = "red"
BLUE = "blue"

RED_ACTIONS = (
    "DiscoverRemoteSystems",
    "AggressiveServiceDiscovery",
    "StealthServiceDiscovery",
    "ExploitRemoteService",
    "PrivilegeEscalate",
    "DegradeServices",
    "DiscoverDeception",
    "Impact",
    "Withdraw",
    "Sleep",
)

BLUE_ACTIONS = (
    "AllowTrafficZone",
    "BlockTrafficZone",
    "Monitor",
    "Analyse",
    "Restore",
    "Remove",
    "DeployDecoy",
    "Sleep",
)

ACTIONS_BY_SIDE = {RED: RED_ACTIONS, BLUE: BLUE_ACTIONS}

TARGET_HOST = "host"
TARGET_ZONE = "zone"
TARGET_NONE = "none"

TARGET_KINDS = {
    "DiscoverRemoteSystems": TARGET_ZONE,
    "AggressiveServiceDiscovery": TARGET_HOST,
    "StealthServiceDiscovery": TARGET_HOST,
    "ExploitRemoteService": TARGET_HOST,
    "PrivilegeEscalate": TARGET_HOST,
    "DegradeServices": TARGET_HOST,
    "DiscoverDeception": TARGET_HOST,
    "Impact": TARGET_HOST,
    "Withdraw": TARGET_HOST,
    "AllowTrafficZone": TARGET_ZONE,
    "BlockTrafficZone": TARGET_ZONE,
    "Monitor": TARGET_NONE,
    "Analyse": TARGET_HOST,
    "Restore": TARGET_HOST,
    "Remove": TARGET_HOST,
    "DeployDecoy": TARGET_HOST,
    "Sleep": TARGET_NONE,
}

# Stealthy reconnaissance trades speed for a lower detection chance; the
# heavier state-changing actions take two steps to land.
DEFAULT_DURATIONS = {
    "DiscoverRemoteSystems": 1,
    "AggressiveServiceDiscovery": 1,
    "StealthServiceDiscovery": 3,
    "ExploitRemoteService": 2,
    "PrivilegeEscalate": 2,
    "DegradeServices": 1,
    "DiscoverDeception": 1,
    "Impact": 1,
    "Withdraw": 1,
    "AllowTrafficZone": 1,
    "BlockTrafficZone": 1,
    "Monitor": 1,
    "Analyse": 1,
    "Restore": 2,
    "Remove": 1,
    "DeployDecoy": 1,
    "Sleep": 1,
}


# Every (side, action) pair an agent may submit.
LEGAL = frozenset((side, a) for side, actions in ACTIONS_BY_SIDE.items() for a in actions)


def is_legal(side: str, action: str) -> bool:
    return (side, action) in LEGAL
