"""Integer-genome to program mapping.

A genome is a sequence of integer codons.  Derivation starts at the
grammar's start symbol and always rewrites the leftmost nonterminal.
Every rewrite consumes one codon — including rules with a single
production — and selects the production with ``codon % n_choices``.
When the genome is exhausted the read head wraps to the start; after
`MAX_WRAPS` wraps an unfinished derivation is declared invalid.
A decode gives the finished derivation tree; invalidity is the ordinary
result ``None``, not an error.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

import numpy as np

from .ast import (
    ActionAssign,
    Condition,
    IfStatement,
    ObsTest,
    RuleAst,
    Statement,
    SuccessTest,
    TargetAssign,
)
from .model import DerivNode, Grammar, NonTerminal, Terminal

MAX_WRAPS = 2

# The sections scaffold's hardcoded target line, in grammars without an
# evolvable target section.
_FIXED_TARGET = re.compile(r"^target_heuristic\s*=\s*(\w+)$")


def tree_terminals(root: DerivNode) -> list[str]:
    """Terminal values of a finished derivation tree in left-to-right order."""
    values: list[str] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node.symbol, Terminal):
            values.append(node.symbol.value)
        else:
            stack.extend(reversed(node.children))
    return values


def map_genome(genome: Sequence[int], grammar: Grammar) -> Optional[DerivNode]:
    """Derive `genome` through `grammar`: the finished derivation tree, or
    ``None`` when the derivation does not finish within the wrap budget."""
    codons = np.asarray(genome)
    bad = np.flatnonzero((codons < 0) | (codons % 1 != 0))
    if bad.size:
        raise ValueError(f"codons must be nonnegative integers, got {genome[bad[0]]!r}")
    root = DerivNode(NonTerminal(grammar.start))
    stack = [root]
    index = 0
    wraps = 0
    while stack:
        node = stack.pop()
        name = node.symbol.name  # type: ignore[union-attr]
        if index >= len(genome):
            if wraps >= MAX_WRAPS or len(genome) == 0:
                return None
            wraps += 1
            index = 0
        codon = int(genome[index])
        index += 1
        productions = grammar.rules[name]
        production = productions[codon % len(productions)]
        node.children = [DerivNode(symbol) for symbol in production]
        for child in reversed(node.children):
            if isinstance(child.symbol, NonTerminal):
                stack.append(child)
    return root


def _only_terminal(node: DerivNode) -> str:
    assert len(node.children) == 1 and isinstance(node.children[0].symbol, Terminal)
    return node.children[0].symbol.value


def _obs_name(text: str) -> str:
    return text.split("(", 1)[0].strip()


def _build_operator(node: DerivNode):
    first = node.children[0]
    if first.symbol.name == "observations":  # type: ignore[union-attr]
        fn = _obs_name(_only_terminal(first))
        op = _only_terminal(node.children[1])
        constant = int(_only_terminal(node.children[2]))
        return ObsTest(fn=fn, op=op, constant=constant)
    return SuccessTest(literal=_only_terminal(first))


def _build_condition(node: DerivNode) -> Condition:
    children = node.children
    if len(children) == 1:
        return Condition(kind="single", left=_build_operator(children[0]))
    joiner = children[1].symbol.value  # type: ignore[union-attr]
    return Condition(
        kind=joiner,
        left=_build_operator(children[0]),
        right=_build_operator(children[2]),
    )


def _build_statement(node: DerivNode) -> Statement:
    children = node.children
    if isinstance(children[0].symbol, Terminal) and children[0].symbol.value == "if":
        return IfStatement(
            condition=_build_condition(children[1]),
            body=_build_statement(children[3]),
        )
    inner = children[1]
    if inner.symbol.name == "actions":  # type: ignore[union-attr]
        return ActionAssign(action=_only_terminal(inner))
    return TargetAssign(heuristic=_only_terminal(inner))


def _build_statement_list(node: DerivNode) -> tuple[Statement, ...]:
    statements: list[Statement] = []
    while True:
        statements.append(_build_statement(node.children[0]))
        if len(node.children) == 1:
            return tuple(statements)
        node = node.children[1]


def build_ast(root: DerivNode, grammar: Grammar) -> RuleAst:
    """Convert a finished controller-grammar derivation tree into a `RuleAst`."""
    if root.symbol.name != grammar.start:  # type: ignore[union-attr]
        raise ValueError("tree root does not match the grammar start symbol")
    action_statements: tuple[Statement, ...] = ()
    target_statements: tuple[Statement, ...] = ()
    for child in root.children:
        if isinstance(child.symbol, Terminal):
            fixed = _FIXED_TARGET.match(child.symbol.value)
            if fixed:
                target_statements = (TargetAssign(heuristic=fixed.group(1)),)
        elif child.symbol.name == "statements":
            action_statements = _build_statement_list(child)
        elif child.symbol.name == "th_statements":
            target_statements = _build_statement_list(child)
    return RuleAst(
        action_statements=action_statements,
        target_statements=target_statements,
    )
