"""Reference implementations used to cross-check library behaviour.

These are deliberately written from the rules' plain-language
description, with different data structures than the library (an
explicit sentential-form list instead of a work stack), so agreement
between the two is meaningful.  The program-text oracle enumerates
every derivation by full backtracking, where the library makes one
ordered-choice pass.  The topology oracle checks a network against the
documented shape.  The green-user oracle replays the engine module
docstring's draws with plain ``integers`` and ``random`` calls, and the
red recount counts from the raw sessions and known hosts what each red
agent keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from cyberevo.errors import ScenarioConfigError
from cyberevo.grammar.model import DerivNode, NonTerminal, Terminal
from cyberevo.scenario import engine
from cyberevo.scenario.engine import ROOT_LEVEL, USER_LEVEL
from cyberevo.scenario.rewards import ACCESS_SERVICE_FAILS, LOCAL_WORK_FAILS
from cyberevo.scenario.topology import HOST_ZONES, INTERNET

# A grammar spec is {rule: [production, ...]} where each production is a
# list of ("T", text) terminals and ("N", rule) references.  The first
# rule is the start symbol.
TOY_SPEC = {
    "s": [[("N", "a")], [("N", "a"), ("N", "s")]],
    "a": [[("T", "x")], [("N", "b")]],
    "b": [[("T", "y")], [("T", "z")], [("T", "w")]],
}


@dataclass(frozen=True)
class OracleResult:
    phenotype: str | None
    invalid: bool
    used_codons: int
    wraps: int


def oracle_map(genome, rules, start, max_wraps: int = 2) -> OracleResult:
    """Rewrite the leftmost nonterminal of a sentential form, one codon
    per rewrite, wrapping the read head at most ``max_wraps`` times."""
    form: list[tuple[str, str]] = [("N", start)]
    index = used = wraps = 0
    while True:
        position = None
        for k, (kind, _) in enumerate(form):
            if kind == "N":
                position = k
                break
        if position is None:
            return OracleResult(" ".join(v for _, v in form), False, used, wraps)
        if index >= len(genome):
            if wraps >= max_wraps or not genome:
                return OracleResult(None, True, used, wraps)
            wraps += 1
            index = 0
        codon = genome[index]
        index += 1
        used += 1
        choices = rules[form[position][1]]
        production = choices[codon % len(choices)]
        form[position:position + 1] = list(production)


def spec_to_text(spec) -> str:
    """Render a grammar spec in the definition format the library reads."""
    lines = []
    for name, productions in spec.items():
        alternatives = [
            " ".join(f'"{value}"' if kind == "T" else value for kind, value in p)
            for p in productions
        ]
        lines.append(f"{name}: " + " | ".join(alternatives))
    return "\n".join(lines) + "\n"


def grammar_to_spec(grammar) -> dict:
    """Transcribe a library grammar object into the plain spec form."""
    return {
        name: [
            [
                ("T", symbol.value) if hasattr(symbol, "value") else ("N", symbol.name)
                for symbol in production
            ]
            for production in productions
        ]
        for name, productions in grammar.rules.items()
    }


def all_genomes(max_length: int, codon_bound: int):
    """Every codon tuple of length 0..max_length with codons below the bound."""
    for length in range(max_length + 1):
        yield from iter_product(range(codon_bound), repeat=length)


def _squish(text: str) -> str:
    return "".join(text.split())


def _match(grammar, symbol, text: str, pos: int):
    """Every (node, end) that `symbol` derives from `pos`, in alternative order."""
    if isinstance(symbol, Terminal):
        token = _squish(symbol.value)
        if token and text.startswith(token, pos):
            yield DerivNode(symbol), pos + len(token)
        return
    for production in grammar.rules[symbol.name]:
        for children, end in _match_sequence(grammar, production, 0, text, pos):
            node = DerivNode(symbol)
            node.children = children
            yield node, end


def _match_sequence(grammar, production, index: int, text: str, pos: int):
    if index == len(production):
        yield [], pos
        return
    for node, mid in _match(grammar, production[index], text, pos):
        for rest, end in _match_sequence(grammar, production, index + 1, text, mid):
            yield [node, *rest], end


def oracle_parse_program(text: str, grammar):
    """The first derivation, in alternative order, that spans the squished
    text, found by full backtracking; None when no derivation does."""
    squished = _squish(text)
    if not squished:
        return None
    for tree, end in _match(grammar, NonTerminal(grammar.start), squished, 0):
        if end == len(squished):
            return tree
    return None


def check_topology(topology, bounds) -> None:
    """Raise `ScenarioConfigError` if the topology violates the documented shape."""
    if not topology.hosts_by_zone[INTERNET] == []:
        raise ScenarioConfigError("internet zone must not contain hosts")
    for zone in HOST_ZONES:
        servers = len(topology.servers_in(zone))
        users = len(topology.hosts_by_zone[zone]) - servers
        if not bounds.servers[0] <= servers <= bounds.servers[1]:
            raise ScenarioConfigError(f"zone {zone} has {servers} servers, outside {bounds.servers}")
        if not bounds.user_hosts[0] <= users <= bounds.user_hosts[1]:
            raise ScenarioConfigError(f"zone {zone} has {users} user hosts, outside {bounds.user_hosts}")
    for host in topology.hosts.values():
        if not bounds.services[0] <= host.services <= bounds.services[1]:
            raise ScenarioConfigError(f"host {host.id} has {host.services} services, outside {bounds.services}")


def service_hosts(topology) -> list[str]:
    """The service table as host ids: each host once per service it runs,
    in topology order."""
    return [h for h, host in topology.hosts.items() for _ in range(host.services)]


def oracle_greens(sim, events: list, services: list[str]) -> None:
    """One step of the green users, as the engine module docstring says.

    Each green host, in topology order, draws ``random()`` for local
    work; otherwise it draws ``integers(len(services))`` until the
    service is not on its own host.  Local work on a degraded or
    restoring host fails in the green's zone; an access fails in the
    service's zone when the service's zone is out of reach or its host
    is degraded or restoring; otherwise an access to a compromised host
    draws ``random()`` for a red session on the green host.  The
    probabilities are read from the engine module when called.
    """
    rng, hosts = sim.rng, sim.topology.hosts
    for host_id, host in hosts.items():
        if host.server:
            continue
        state = sim.hosts[host_id]
        if rng.random() < engine.GREEN_LOCAL_WORK_P:
            if state.degraded or state.restoring:
                sim._green_failure(host.zone, LOCAL_WORK_FAILS, events)
            continue
        target = services[rng.integers(len(services))]
        while target == host_id:
            target = services[rng.integers(len(services))]
        target_zone, target_state = hosts[target].zone, sim.hosts[target]
        if (not sim.reachable(host.zone, target_zone)
                or target_state.degraded or target_state.restoring):
            sim._green_failure(target_zone, ACCESS_SERVICE_FAILS, events)
        elif target_state.red_level >= USER_LEVEL and rng.random() < engine.SERVICE_SPAWN_P:
            sim._hand_red_session(host.zone, host_id)


def recount_red(sim, red) -> tuple[int, int]:
    """A red agent's root sessions and known servers, counted afresh."""
    roots = sum(1 for level in red.sessions.values() if level == ROOT_LEVEL)
    servers = sum(1 for host_id in red.known if sim.topology.hosts[host_id].server)
    return roots, servers
