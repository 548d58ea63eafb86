"""Random network topology generation.

The scenario spans four networks joined through the internet: two
deployed networks (a restricted plus an operational security zone each),
a headquarters network with three security zones and an undefended
contractor network hosting UAV control services.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from ..errors import ScenarioConfigError
from ..seeds import spawn_stream

INTERNET = "internet"

# (zone id, network, reward zone label)
ZONE_TABLE = (
    ("restricted_zone_a", "deployed_a", "Restricted Zone A"),
    ("operational_zone_a", "deployed_a", "Operational Zone A"),
    ("restricted_zone_b", "deployed_b", "Restricted Zone B"),
    ("operational_zone_b", "deployed_b", "Operational Zone B"),
    ("public_access_zone", "hq", "HQ Network"),
    ("admin_zone", "hq", "HQ Network"),
    ("office_network", "hq", "HQ Network"),
    ("contractor_uav", "contractor", "Contractor Network"),
    (INTERNET, "internet", "Internet"),
)

ZONES = tuple(z for z, _, _ in ZONE_TABLE)
HOST_ZONES = tuple(z for z in ZONES if z != INTERNET)
REWARD_ZONE_OF = {z: label for z, _, label in ZONE_TABLE}

# Restricted zones front their operational zones; HQ zones are fully
# meshed behind the public access zone; everything external rides the
# internet.
ADJACENCY = {
    INTERNET: ("restricted_zone_a", "restricted_zone_b", "public_access_zone", "contractor_uav"),
    "restricted_zone_a": (INTERNET, "operational_zone_a"),
    "operational_zone_a": ("restricted_zone_a",),
    "restricted_zone_b": (INTERNET, "operational_zone_b"),
    "operational_zone_b": ("restricted_zone_b",),
    "public_access_zone": (INTERNET, "admin_zone", "office_network"),
    "admin_zone": ("public_access_zone", "office_network"),
    "office_network": ("public_access_zone", "admin_zone"),
    "contractor_uav": (INTERNET,),
}


@dataclass(frozen=True)
class TopologyBounds:
    """Per-zone sizing ranges, inclusive."""

    servers: tuple[int, int] = (1, 6)
    user_hosts: tuple[int, int] = (3, 10)
    services: tuple[int, int] = (1, 5)

    def __post_init__(self):
        # Every range needs low >= 1: each blue agent's home is a server,
        # phishing picks a user host, and greens pick a service.
        for name in ("servers", "user_hosts", "services"):
            low, high = getattr(self, name)
            if not 1 <= low <= high:
                raise ScenarioConfigError(f"{name}={(low, high)} must satisfy 1 <= low <= high")


class Host(NamedTuple):
    id: str
    zone: str
    server: bool
    services: int


@dataclass
class Topology:
    """Hosts by id, and each zone's host ids: keys in `ZONES` order,
    servers before user hosts."""

    hosts: dict[str, Host]
    hosts_by_zone: dict[str, list[str]]

    def servers_in(self, zone: str) -> list[str]:
        return [h for h in self.hosts_by_zone[zone] if self.hosts[h].server]


@lru_cache(maxsize=None)
def _host_ids(zone: str, kind: str, count: int) -> tuple[str, ...]:
    return tuple(f"{zone}_{kind}{i}" for i in range(count))


def generate_topology(seed: int, bounds: TopologyBounds = TopologyBounds()) -> Topology:
    """Generate a random topology; identical seeds give identical results.

    Per zone it draws the server count, the user-host count, then each
    host's service count, servers first.
    """
    rng = spawn_stream(seed)
    servers_low, servers_high = bounds.servers
    users_low, users_high = bounds.user_hosts
    services_low, services_high = bounds.services
    servers_draw = rng.below(servers_high - servers_low + 1)
    users_draw = rng.below(users_high - users_low + 1)
    services_draw = rng.below(services_high - services_low + 1)
    hosts: dict[str, Host] = {}
    hosts_by_zone: dict[str, list[str]] = {}
    for zone in HOST_ZONES:
        servers = _host_ids(zone, "srv", servers_low + servers_draw())
        users = _host_ids(zone, "usr", users_low + users_draw())
        for hid in servers:
            hosts[hid] = Host(hid, zone, True, services_low + services_draw())
        for hid in users:
            hosts[hid] = Host(hid, zone, False, services_low + services_draw())
        hosts_by_zone[zone] = [*servers, *users]
    hosts_by_zone[INTERNET] = []
    return Topology(hosts, hosts_by_zone)


def zone_reachable(blocked: set[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """Reachability over the zone graph with blocked edges removed.

    Returns, for every zone, the set of zones it can route to (itself
    included).  A blocked pair cuts the direct edge in both directions.
    """
    reach: dict[str, frozenset[str]] = {}
    for start in ZONES:
        seen = {start}
        frontier = [start]
        while frontier:
            zone = frontier.pop()
            for nxt in ADJACENCY[zone]:
                pair = (zone, nxt) if zone < nxt else (nxt, zone)
                if pair in blocked or nxt in seen:
                    continue
                seen.add(nxt)
                frontier.append(nxt)
        reach[start] = frozenset(seen)
    return reach
