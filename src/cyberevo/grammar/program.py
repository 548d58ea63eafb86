"""Concrete program text for controller derivations.

`render_program` lays out a finished derivation tree as readable,
Python-like text with four-space indentation.  `parse_program` does the
reverse: it ignores all whitespace and reconstructs a derivation tree
in one ordered-choice descent over the remaining characters.  A list
rule of the form ``X: Y | Y X``, with ``Y`` a rule, reads ``Y`` as
often as it matches; every other rule takes its first alternative that
matches, with no backtracking into an alternative once it has matched.
On the packaged grammars that finds the tree a full backtracking search
finds first, because no terminal alternative is a prefix of a sibling
and what follows a list cannot start one of its items;
``tests/test_program.py`` checks both properties and compares the two
searches.  Round-tripping a tree through render and parse yields a
structurally identical tree.
"""

from __future__ import annotations

import weakref

from ..errors import ProgramParseError
from .mapping import tree_terminals
from .model import DerivNode, Grammar, NonTerminal, Symbol, Terminal

_INDENT = "    "

_LIST_RULES = frozenset({"statements", "th_statements"})


def _render_statement(node: DerivNode, depth: int, lines: list[str]) -> None:
    first = node.children[0]
    if isinstance(first.symbol, Terminal) and first.symbol.value == "if":
        test = " ".join(tree_terminals(node.children[1]))
        lines.append(f"{_INDENT * depth}if {test}:")
        _render_statement(node.children[3], depth + 1, lines)
    else:
        keyword = first.symbol.value  # type: ignore[union-attr]
        value = node.children[1].children[0].symbol.value  # type: ignore[union-attr]
        lines.append(f"{_INDENT * depth}{keyword} {value}")


def _render_statement_list(node: DerivNode, depth: int, lines: list[str]) -> None:
    while True:
        _render_statement(node.children[0], depth, lines)
        if len(node.children) == 1:
            return
        node = node.children[1]


def render_program(tree: DerivNode) -> str:
    """Lay out a finished controller derivation tree as indented text."""
    lines: list[str] = []
    for child in tree.children:
        if isinstance(child.symbol, Terminal):
            text = child.symbol.value
            if text.startswith("def "):
                lines.append(text)
            else:
                lines.append(_INDENT + text)
        elif child.symbol.name in _LIST_RULES:
            _render_statement_list(child, 1, lines)
        else:
            raise ValueError(f"cannot render section symbol {child.symbol!r}")
    return "\n".join(lines) + "\n"


def _squish(text: str) -> str:
    return "".join(text.split())


# A compiled rule is its nonterminal, the rule that a list rule repeats
# (None for any other rule) and its alternatives, each a tuple of items:
# a squished terminal and its symbol, or None and a rule name.
_Item = tuple[str | None, Symbol | str]
_Rule = tuple[NonTerminal, str | None, tuple[tuple[_Item, ...], ...]]

_TABLES: dict[int, dict[str, _Rule]] = {}


def _item(symbol: Symbol) -> _Item:
    if isinstance(symbol, NonTerminal):
        return None, symbol.name
    # Squished text holds no whitespace, so a terminal that squishes to
    # nothing, and must never match, becomes one that cannot.
    return _squish(symbol.value) or " ", symbol


def _compile(grammar: Grammar) -> dict[str, _Rule]:
    table: dict[str, _Rule] = {}
    for name, productions in grammar.rules.items():
        symbol = NonTerminal(name)
        first = productions[0] if productions else ()
        if (
            len(first) == 1
            and isinstance(first[0], NonTerminal)
            and productions == (first, (*first, symbol))
        ):
            table[name] = (symbol, first[0].name, ())
        else:
            alternatives = tuple(tuple(map(_item, p)) for p in productions)
            table[name] = (symbol, None, alternatives)
    return table


def _table(grammar: Grammar) -> dict[str, _Rule]:
    """The compiled rules of `grammar`, built once per grammar object."""
    table = _TABLES.get(id(grammar))
    if table is None:
        table = _TABLES[id(grammar)] = _compile(grammar)
        weakref.finalize(grammar, _TABLES.pop, id(grammar), None)
    return table


def _parse(
    table: dict[str, _Rule], name: str, text: str, pos: int
) -> tuple[DerivNode, int] | None:
    """The first alternative of rule `name` that matches at `pos`, and its end."""
    symbol, repeated, alternatives = table[name]
    if repeated is not None:
        items = []
        while (found := _parse(table, repeated, text, pos)) is not None:
            node, pos = found
            items.append(node)
        if not items:
            return None
        tail = DerivNode(symbol, [items.pop()])
        while items:
            tail = DerivNode(symbol, [items.pop(), tail])
        return tail, pos
    for alternative in alternatives:
        children = []
        end = pos
        for token, child in alternative:
            if token is None:
                found = _parse(table, child, text, end)  # type: ignore[arg-type]
                if found is None:
                    break
                node, end = found
                children.append(node)
            elif text.startswith(token, end):
                children.append(DerivNode(child))  # type: ignore[arg-type]
                end += len(token)
            else:
                break
        else:
            return DerivNode(symbol, children), end
    return None


def parse_program(text: str, grammar: Grammar) -> DerivNode:
    """Reconstruct the derivation tree of rendered (or LLM-written) code.

    All whitespace is ignored, so indentation and line breaks carry no
    meaning.  Raises `ProgramParseError` when the text does not derive
    from the grammar's start rule.
    """
    squished = _squish(text)
    if not squished:
        raise ProgramParseError("program text is empty")
    found = _parse(_table(grammar), grammar.start, squished, 0)
    if found is None or found[1] != len(squished):
        raise ProgramParseError(
            f"text does not derive from rule {grammar.start!r}: {text[:80]!r}"
        )
    return found[0]
