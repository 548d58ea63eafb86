"""Grammar data model and serialization back to definition text."""

from __future__ import annotations

import re
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


_FIXED_TARGET = re.compile(r"^target_heuristic\s*=\s*(\w+)$")

# Rule names a grammar must define to decode into controller trees.
CONTROLLER_RULES = ("sections", "statements", "statement", "conditions",
                    "operator", "operand", "success", "observations",
                    "constant", "actions")


@dataclass
class Grammar:
    """An ordered set of production rules with a start symbol."""

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

    def is_controller_grammar(self) -> bool:
        return all(name in self.rules for name in CONTROLLER_RULES)

    def action_terminals(self) -> tuple[str, ...]:
        out = []
        for production in self.productions("actions"):
            if len(production) != 1 or not isinstance(production[0], Terminal):
                raise GrammarParseError("actions rule must list single-terminal alternatives")
            out.append(production[0].value)
        return tuple(out)

    def observation_terminals(self) -> tuple[str, ...]:
        out = []
        for production in self.productions("observations"):
            if len(production) != 1 or not isinstance(production[0], Terminal):
                raise GrammarParseError("observations rule must list single-terminal alternatives")
            out.append(production[0].value)
        return tuple(out)

    def fixed_target(self) -> str | None:
        """The hardcoded target heuristic in the sections scaffold, if any."""
        for production in self.productions(self.start):
            for symbol in production:
                if isinstance(symbol, Terminal):
                    match = _FIXED_TARGET.match(symbol.value.strip())
                    if match:
                        return match.group(1)
        return None

    def has_target_section(self) -> bool:
        return "th_statements" in self.rules

    def to_text(self) -> str:
        """Render back to the definition format parse_grammar accepts."""
        lines = []
        for name, productions in self.rules.items():
            indent = " " * len(name)
            for i, production in enumerate(productions):
                body = " ".join(
                    f'"{s.value}"' if isinstance(s, Terminal) else s.name for s in production
                )
                if i == 0:
                    lines.append(f"{name}: {body}")
                else:
                    lines.append(f"{indent}| {body}")
        return "\n".join(lines) + "\n"
