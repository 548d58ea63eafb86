"""Grammar definition parsing and the grammar data model."""

from __future__ import annotations

import pytest

from cyberevo.errors import GrammarParseError
from cyberevo.grammar.model import Grammar, NonTerminal, Terminal
from cyberevo.grammar.parse import parse_grammar
from cyberevo.llm import GRAMMAR_HEADER, PROGRAM_HEADER, build_prompt

from helpers import fixed_target, has_target_section, is_controller_grammar, observation_terminals

TOY = """\
s: a | a s
a: "x" | b
b: "y" | "z"
"""


def test_parse_basic_rules_alternatives_and_start():
    grammar = parse_grammar(TOY)
    assert grammar.start == "s"
    assert tuple(grammar.rules) == ("s", "a", "b")
    assert grammar.choice_counts() == {"s": 2, "a": 2, "b": 2}
    assert grammar.productions("s") == (
        (NonTerminal("a"),),
        (NonTerminal("a"), NonTerminal("s")),
    )
    assert grammar.productions("b") == ((Terminal("y"),), (Terminal("z"),))


def test_indented_lines_continue_the_previous_rule():
    text = 's: "one"\n | "two"\n   | "three"\nt: "four"\n'
    grammar = parse_grammar(text)
    assert grammar.choice_counts() == {"s": 3, "t": 1}
    assert grammar.productions("s")[2] == (Terminal("three"),)


def test_quoted_terminals_may_contain_pipes_spaces_and_colons():
    grammar = parse_grammar('s: "a | b: c" t\nt: "plain"\n')
    assert grammar.productions("s")[0][0] == Terminal("a | b: c")


def test_parse_errors():
    with pytest.raises(GrammarParseError):
        parse_grammar("")
    with pytest.raises(GrammarParseError):
        parse_grammar("   \n\n")
    with pytest.raises(GrammarParseError):
        parse_grammar('s: "a" |\n')  # empty alternative
    with pytest.raises(GrammarParseError):
        parse_grammar('s: "a"\ns: "b"\n')  # duplicate rule
    with pytest.raises(GrammarParseError):
        parse_grammar("s: missing\n")  # undefined reference
    with pytest.raises(GrammarParseError):
        parse_grammar('s: "unterminated\n')
    with pytest.raises(GrammarParseError):
        parse_grammar('  | "a"\n')  # continuation before any rule


def test_productions_of_unknown_rule_raise():
    grammar = parse_grammar(TOY)
    with pytest.raises(GrammarParseError):
        grammar.productions("zz")


def test_round_trip_preserves_special_terminals():
    # The offline mock client parses the grammar back out of each prompt.
    text = 's: "if x | y:" s | "end"\n'
    grammar = parse_grammar(text)
    assert grammar.productions("s") == (
        (Terminal("if x | y:"), NonTerminal("s")),
        (Terminal("end"),),
    )
    prompt = build_prompt(grammar, "end")
    section = prompt.partition(GRAMMAR_HEADER)[2].partition(PROGRAM_HEADER)[0]
    assert parse_grammar(section).rules == grammar.rules


def test_controller_grammar_detection():
    assert not is_controller_grammar(parse_grammar(TOY))


def test_action_and_observation_terminal_helpers():
    grammar = parse_grammar(
        'actions: "Sleep" | "Impact"\nobservations: "n_servers"\n'
    )
    assert grammar.action_terminals() == ("Sleep", "Impact")
    assert observation_terminals(grammar) == ("n_servers",)
    bad = parse_grammar('actions: "a" "b"\n')
    with pytest.raises(GrammarParseError):
        bad.action_terminals()


def test_fixed_target_scaffold_detection():
    fixed = parse_grammar(
        'sections: "action = " actions "target_heuristic = random_target"\n'
        'actions: "Sleep"\n'
    )
    assert fixed_target(fixed) == "random_target"
    assert not has_target_section(fixed)
    free = parse_grammar(
        'sections: "action = " actions th_statements\n'
        'actions: "Sleep"\n'
        'th_statements: "target_heuristic = first_target"\n'
    )
    assert fixed_target(free) is None
    assert has_target_section(free)


def test_grammar_equality_ignores_source_text():
    a = parse_grammar('s: "x"\n')
    b = parse_grammar('s:    "x"   \n')
    assert a == b
    assert a.source != b.source


def test_grammar_is_plain_data():
    grammar = Grammar(rules={"s": ((Terminal("x"),),)}, start="s")
    assert grammar.productions("s") == ((Terminal("x"),),)
