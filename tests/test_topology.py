"""Topology generation bounds, determinism, and zone reachability."""

from __future__ import annotations

import pytest

from cyberevo.errors import ScenarioConfigError
from cyberevo.scenario.topology import (
    ADJACENCY,
    HOST_ZONES,
    INTERNET,
    REWARD_ZONE_OF,
    ZONES,
    Host,
    Topology,
    TopologyBounds,
    generate_topology,
    zone_reachable,
)

from helpers import user_hosts
from oracles import check_topology


def bfs_reachable(blocked: set[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """Independent breadth-first reachability over the zone graph."""
    edges = set()
    for zone, neighbours in ADJACENCY.items():
        for other in neighbours:
            pair = tuple(sorted((zone, other)))
            if pair not in blocked:
                edges.add(pair)
    out = {}
    for start in ZONES:
        seen = {start}
        queue = [start]
        while queue:
            zone = queue.pop(0)
            for a, b in edges:
                step = b if a == zone else a if b == zone else None
                if step is not None and step not in seen:
                    seen.add(step)
                    queue.append(step)
        out[start] = frozenset(seen)
    return out


def test_zone_vocabulary():
    assert len(ZONES) == 9
    assert INTERNET in ZONES
    assert len(HOST_ZONES) == 8
    assert set(REWARD_ZONE_OF) == set(ZONES)


def test_adjacency_is_symmetric():
    for zone, neighbours in ADJACENCY.items():
        for other in neighbours:
            assert zone in ADJACENCY[other], (zone, other)


def test_generate_topology_is_deterministic():
    a = generate_topology(7)
    b = generate_topology(7)
    assert a == b


def test_generate_topology_varies_with_seed():
    assert generate_topology(1).hosts != generate_topology(2).hosts


def test_generated_topology_respects_bounds():
    bounds = TopologyBounds()
    for seed in range(5):
        topology = generate_topology(seed, bounds)
        check_topology(topology, bounds)
        assert topology.hosts_by_zone[INTERNET] == []
        for zone in HOST_ZONES:
            servers = len(topology.servers_in(zone))
            users = len(topology.hosts_by_zone[zone]) - servers
            assert bounds.servers[0] <= servers <= bounds.servers[1]
            assert bounds.user_hosts[0] <= users <= bounds.user_hosts[1]
        for host in topology.hosts.values():
            assert bounds.services[0] <= host.services <= bounds.services[1]


def test_custom_bounds_are_honoured():
    bounds = TopologyBounds(servers=(2, 2), user_hosts=(3, 3), services=(1, 1))
    topology = generate_topology(0, bounds)
    for zone in HOST_ZONES:
        assert len(topology.servers_in(zone)) == 2
        assert len(topology.hosts_by_zone[zone]) == 5
    assert all(h.services == 1 for h in topology.hosts.values())


@pytest.mark.parametrize("bounds", [
    {"services": (0, 0)},
    {"services": (3, 1)},
    {"servers": (0, 0)},
    {"user_hosts": (0, 0)},
    {"user_hosts": (-1, 2)},
], ids=str)
def test_impossible_bounds_are_config_errors(bounds):
    with pytest.raises(ScenarioConfigError):
        TopologyBounds(**bounds)


def test_user_hosts_and_servers_partition_each_zone():
    topology = generate_topology(4)
    users = set(user_hosts(topology))
    for zone in HOST_ZONES:
        zone_hosts = set(topology.hosts_by_zone[zone])
        servers = set(topology.servers_in(zone))
        assert servers <= zone_hosts
        assert (zone_hosts - servers) <= users


def test_hosts_by_zone_follows_zone_order_servers_first():
    for seed in range(20):
        topology = generate_topology(seed)
        by_zone = {zone: [] for zone in ZONES}
        for host in topology.hosts.values():
            by_zone[host.zone].append(host.id)
        assert topology.hosts_by_zone == by_zone
        assert list(topology.hosts_by_zone) == list(ZONES)
        for zone in HOST_ZONES:
            flags = [topology.hosts[h].server for h in topology.hosts_by_zone[zone]]
            assert flags == sorted(flags, reverse=True)


def test_validate_rejects_out_of_bounds_shapes():
    hosts = {"contractor_uav_srv0": Host("contractor_uav_srv0", "contractor_uav", True, 1)}
    by_zone = {zone: [] for zone in ZONES} | {"contractor_uav": ["contractor_uav_srv0"]}
    with pytest.raises(ScenarioConfigError):
        check_topology(Topology(hosts, by_zone), TopologyBounds())


def test_zone_reachable_unblocked_graph_is_connected():
    reach = zone_reachable(set())
    for zone in ZONES:
        assert reach[zone] == frozenset(ZONES)


def test_zone_reachable_matches_bfs_oracle_on_random_blocks():
    import random

    edges = sorted(
        {tuple(sorted((zone, other))) for zone, ns in ADJACENCY.items() for other in ns}
    )
    rng = random.Random(0)
    for _ in range(50):
        blocked = set(rng.sample(edges, rng.randint(0, len(edges))))
        # Pairs that are not edges must have no effect on transit.
        blocked_with_noise = blocked | {("admin_zone", "contractor_uav")}
        assert zone_reachable(blocked_with_noise) == bfs_reachable(blocked)


def test_blocking_cuts_both_directions():
    blocked = {tuple(sorted((INTERNET, "contractor_uav")))}
    reach = zone_reachable(blocked)
    assert "contractor_uav" not in reach[INTERNET]
    assert INTERNET not in reach["contractor_uav"]
    assert reach["contractor_uav"] == frozenset({"contractor_uav"})
