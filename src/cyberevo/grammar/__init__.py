"""Context-free grammars, genome decoding, and program round-tripping."""

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
from .mapping import MAX_WRAPS, MappingResult, build_ast, map_genome, tree_terminals
from .model import DerivNode, Grammar, NonTerminal, Terminal
from .parse import parse_grammar
from .program import parse_program, render_program
from .variants import Variant, grammar_asset_name, load_grammar

__all__ = [
    "ActionAssign",
    "Condition",
    "DerivNode",
    "Grammar",
    "IfStatement",
    "MAX_WRAPS",
    "MappingResult",
    "NonTerminal",
    "ObsTest",
    "RuleAst",
    "Statement",
    "SuccessTest",
    "TargetAssign",
    "Terminal",
    "Variant",
    "build_ast",
    "grammar_asset_name",
    "load_grammar",
    "map_genome",
    "parse_grammar",
    "parse_program",
    "render_program",
    "tree_terminals",
]
