"""Grammar data model."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import GrammarParseError


@dataclass(frozen=True)
class Terminal:
    value: str


@dataclass(frozen=True)
class NonTerminal:
    name: str


Symbol = Terminal | NonTerminal
Production = tuple[Symbol, ...]


class DerivNode:
    """One node of a derivation or parse tree."""

    __slots__ = ("symbol", "children")

    def __init__(self, symbol: Symbol, children: list["DerivNode"] | None = None):
        self.symbol = symbol
        self.children = children if children is not None else []


@dataclass
class Grammar:
    """An ordered set of production rules with a start symbol.

    ``source`` is the definition text the grammar was parsed from; the
    LLM mutation prompt embeds it as written.
    """

    rules: dict[str, tuple[Production, ...]]
    start: str
    source: str = field(default="", compare=False)

    def productions(self, name: str) -> tuple[Production, ...]:
        try:
            return self.rules[name]
        except KeyError as exc:
            raise GrammarParseError(f"no rule named {name!r}") from exc

    def choice_counts(self) -> dict[str, int]:
        return {name: len(p) for name, p in self.rules.items()}

    def action_terminals(self) -> tuple[str, ...]:
        out = []
        for production in self.productions("actions"):
            if len(production) != 1 or not isinstance(production[0], Terminal):
                raise GrammarParseError("actions rule must list single-terminal alternatives")
            out.append(production[0].value)
        return tuple(out)
