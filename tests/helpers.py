"""Test-only controllers, views of grammars, genome decodes, the engine,
the topology and the reward table that only tests read, and the
environment for child interpreters."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import cyberevo
from cyberevo.controllers.base import RANDOM_TARGET
from cyberevo.errors import GrammarParseError
from cyberevo.grammar.ast import RuleAst
from cyberevo.grammar.mapping import _FIXED_TARGET, MAX_WRAPS, build_ast, map_genome, tree_terminals
from cyberevo.grammar.model import DerivNode, Grammar, NonTerminal, Terminal
from cyberevo.scenario.engine import ScenarioSim
from cyberevo.scenario.topology import Topology

# The observations the OE grammar variants put before the baseline's two.
EXTRA_OBSERVATIONS = (
    "connections(observation)",
    "files_user(observation)",
    "files_root(observation)",
)


def package_env() -> dict[str, str]:
    """This process's environment with the imported package's root first
    on ``PYTHONPATH``.

    A child that runs elsewhere would resolve a relative entry such as
    ``src`` to nothing, and an installed copy could stand in for the
    package under test.
    """
    package_root = str(Path(cyberevo.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
    return env


class FixedActionController:
    """Repeats one action with one heuristic."""

    def __init__(self, side: str, action: str, heuristic: str = RANDOM_TARGET):
        self.side = side
        self.action = action
        self.heuristic = heuristic

    def decide(self, context, rng) -> tuple[str, str]:
        return self.action, self.heuristic


def observation_terminals(grammar: Grammar) -> tuple[str, ...]:
    """The terminals of the ``observations`` rule, in order."""
    out = []
    for production in grammar.productions("observations"):
        if len(production) != 1 or not isinstance(production[0], Terminal):
            raise GrammarParseError("observations rule must list single-terminal alternatives")
        out.append(production[0].value)
    return tuple(out)


def fixed_target(grammar: Grammar) -> str | None:
    """The hardcoded target heuristic in the sections scaffold, if any."""
    for production in grammar.productions(grammar.start):
        for symbol in production:
            if isinstance(symbol, Terminal):
                match = _FIXED_TARGET.match(symbol.value.strip())
                if match:
                    return match.group(1)
    return None


def has_target_section(grammar: Grammar) -> bool:
    return "th_statements" in grammar.rules


# Rule names a grammar must define to decode into controller trees.
CONTROLLER_RULES = ("sections", "statements", "statement", "conditions",
                    "operator", "operand", "success", "observations",
                    "constant", "actions")


def is_controller_grammar(grammar: Grammar) -> bool:
    return all(name in grammar.rules for name in CONTROLLER_RULES)


@dataclass(frozen=True)
class MappingResult:
    """One decode as the mapping oracle reports it, plus the tree and AST."""

    phenotype: Optional[str]
    tree: Optional[DerivNode]
    ast: Optional[RuleAst]
    invalid: bool
    used_codons: int
    wraps: int


def mapping_result(genome: Sequence[int], grammar: Grammar) -> MappingResult:
    """`map_genome`'s tree and what follows from it.

    Every rewrite consumes one codon, so a finished tree used one codon
    per nonterminal node, and the read head wrapped once per full read of
    the genome before the last codon.  An unfinished derivation read the
    genome ``MAX_WRAPS + 1`` times, or not at all when it is empty.
    """
    tree = map_genome(genome, grammar)
    if tree is None:
        reads = MAX_WRAPS + 1 if len(genome) else 0
        return MappingResult(None, None, None, True, reads * len(genome), max(reads - 1, 0))
    used = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node.symbol, NonTerminal):
            used += 1
            stack.extend(node.children)
    ast = build_ast(tree, grammar) if is_controller_grammar(grammar) else None
    phenotype = " ".join(tree_terminals(tree))
    return MappingResult(phenotype, tree, ast, False, used, (used - 1) // len(genome))


def agent_names(sim: ScenarioSim) -> list[str]:
    """Active agents in step order: blue agents, then red agents by slot."""
    return [*sim.blue_agents, *(agent.name for agent in sim.red_agents if agent is not None)]


def user_hosts(topology: Topology) -> list[str]:
    """Ids of every host that is not a server, zone by zone."""
    return [h.id for h in topology.hosts.values() if not h.server]


def packaged_reward_cells() -> dict:
    """A fresh copy of the packaged reward table's cells."""
    text = resources.files("cyberevo.scenario").joinpath("data/reward_table.json").read_text()
    return json.loads(text)
