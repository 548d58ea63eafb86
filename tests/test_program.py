"""Program text rendering and whitespace-insensitive reparsing."""

from __future__ import annotations

import numpy as np
import pytest

from cyberevo.errors import ProgramParseError
from cyberevo.grammar.mapping import build_ast, map_genome, tree_terminals
from cyberevo.grammar.model import NonTerminal, Terminal
from cyberevo.grammar.parse import parse_grammar
from cyberevo.grammar.program import _LIST_RULES, parse_program, render_program
from cyberevo.grammar.variants import SIDES, Variant, load_grammar
from cyberevo.llm import ExpandingMockClient, build_prompt, extract_code
from oracles import oracle_parse_program

PACKAGED = [(side, variant) for side in SIDES for variant in Variant]

MONITOR_CODONS = [0, 0, 1, 2]
MONITOR_TEXT = (
    "def select_action_and_target(observation, name):\n"
    "    #Select action\n"
    "    action = Monitor\n"
    "    target_heuristic = random_target\n"
    "    return action, target_heuristic\n"
)


def tree_equal(a, b) -> bool:
    if a.symbol != b.symbol or len(a.children) != len(b.children):
        return False
    return all(tree_equal(x, y) for x, y in zip(a.children, b.children))


def valid_tree(grammar, rng, length=200):
    while True:
        tree = map_genome(rng.integers(0, 256, size=length).tolist(), grammar)
        if tree is not None:
            return tree


def test_render_known_tree_exactly():
    grammar = load_grammar("blue")
    assert render_program(map_genome(MONITOR_CODONS, grammar)) == MONITOR_TEXT


def test_render_indents_nested_ifs():
    grammar = load_grammar("blue")
    text = render_program(map_genome([0, 0, 0, 2, 0, 1, 0, 1, 3], grammar))
    assert (
        "    if root_access_levels(observation, name) > 1:\n"
        "        action = AllowTrafficZone\n"
    ) in text
    assert text.startswith("def select_action_and_target(observation, name):\n")


def test_parse_recovers_the_rendered_tree():
    grammar = load_grammar("blue")
    original = map_genome(MONITOR_CODONS, grammar)
    reparsed = parse_program(MONITOR_TEXT, grammar)
    assert tree_equal(original, reparsed)


def test_parse_ignores_whitespace_entirely():
    grammar = load_grammar("blue")
    squashed = "".join(MONITOR_TEXT.split())
    spread = MONITOR_TEXT.replace("    ", "\t\t").replace("\n", "\n\n")
    reference = parse_program(MONITOR_TEXT, grammar)
    assert tree_equal(parse_program(squashed, grammar), reference)
    assert tree_equal(parse_program(spread, grammar), reference)


def test_render_parse_render_is_a_fixpoint_for_random_programs():
    rng = np.random.default_rng(21)
    for side in ("red", "blue"):
        for variant in (Variant.BASELINE, Variant.TC, Variant.OE):
            grammar = load_grammar(side, variant)
            for _ in range(10):
                tree = valid_tree(grammar, rng)
                text = render_program(tree)
                reparsed = parse_program(text, grammar)
                assert render_program(reparsed) == text
                assert tree_terminals(reparsed) == tree_terminals(tree)
                assert build_ast(reparsed, grammar) == build_ast(tree, grammar)


def test_parse_rejects_text_outside_the_grammar():
    grammar = load_grammar("blue")
    with pytest.raises(ProgramParseError):
        parse_program("", grammar)
    with pytest.raises(ProgramParseError):
        parse_program("   \n\t ", grammar)
    with pytest.raises(ProgramParseError):
        parse_program("action = Monitor\n", grammar)  # missing the scaffold
    with pytest.raises(ProgramParseError):
        parse_program(MONITOR_TEXT + "action = Monitor\n", grammar)  # trailing junk
    with pytest.raises(ProgramParseError):
        parse_program(MONITOR_TEXT.replace("Monitor", "Impact"), grammar)  # red action


def test_parse_rejects_wrong_side_but_accepts_shared_shape():
    red = load_grammar("red")
    blue_text = MONITOR_TEXT
    with pytest.raises(ProgramParseError):
        parse_program(blue_text, red)
    red_text = blue_text.replace("Monitor", "Impact")
    tree = parse_program(red_text, red)
    assert "Impact" in tree_terminals(tree)


def test_target_section_round_trip():
    grammar = load_grammar("blue", Variant.TC)
    text = (
        "def select_action_and_target(observation, name):\n"
        "    #Select action\n"
        "    action = Analyse\n"
        "    #Select target\n"
        "    if TRUE == observation['success']:\n"
        "        target_heuristic = first_target\n"
        "    return action, target_heuristic\n"
    )
    tree = parse_program(text, grammar)
    assert render_program(tree) == text
    ast = build_ast(tree, grammar)
    assert ast.target_statements  # the evolved target block survived
    assert ast.action_statements[0].action == "Analyse"


def test_parse_takes_first_alternatives_and_reads_lists_to_the_end():
    grammar = parse_grammar(
        'start: items "end"\n'
        "items: item | item items\n"
        'item: "ab" | "a"\n'
    )
    tree = parse_program("a ab a end", grammar)
    assert tree_terminals(tree) == ["a", "ab", "a", "end"]
    # the list nests to the right, one item per node
    node, depth = tree.children[0], 1
    while len(node.children) == 2:
        node, depth = node.children[1], depth + 1
    assert depth == 3


def test_terminals_that_squish_to_nothing_never_match():
    grammar = parse_grammar('start: "x" " " | "x"\n')
    tree = parse_program("x", grammar)
    assert len(tree.children) == 1  # the first alternative needs " ", which never matches
    with pytest.raises(ProgramParseError):
        parse_program("x", parse_grammar('start: "x" " "\n'))


# ---------------------------------------------------------------------------
# what the ordered-choice parse relies on, and the full-backtracking oracle


def _squished(symbol) -> str:
    return "".join(symbol.value.split())


def _first_terminals(grammar, name: str, seen=()) -> set[str]:
    """Squished terminals that can start a derivation of rule `name`."""
    out: set[str] = set()
    for production in grammar.rules[name]:
        head = production[0]
        if isinstance(head, Terminal):
            out.add(_squished(head))
        elif head.name not in seen:
            out |= _first_terminals(grammar, head.name, (*seen, name))
    return out


def _prefix_related(a: str, b: str) -> bool:
    return a.startswith(b) or b.startswith(a)


@pytest.mark.parametrize("side, variant", PACKAGED)
def test_packaged_grammar_keeps_what_ordered_choice_relies_on(side, variant):
    grammar = load_grammar(side, variant)
    for name, productions in grammar.rules.items():
        if all(len(p) == 1 and isinstance(p[0], Terminal) for p in productions):
            tokens = [_squished(p[0]) for p in productions]
            for i, token in enumerate(tokens):
                for j, other in enumerate(tokens):
                    assert i == j or not other.startswith(token), (name, token, other)
    lists = _LIST_RULES & set(grammar.rules)
    assert lists, "a controller grammar has at least the action list"
    for name in lists:
        item = grammar.rules[name][0][0]
        assert isinstance(item, NonTerminal)
        assert grammar.rules[name] == ((item,), (item, NonTerminal(name))), name
        starts = _first_terminals(grammar, item.name)
        for productions in grammar.rules.values():
            for production in productions:
                for k, symbol in enumerate(production):
                    if symbol != NonTerminal(name) or production == (item, symbol):
                        continue
                    follow = production[k + 1]  # a list never ends a production
                    assert isinstance(follow, Terminal)
                    assert not any(_prefix_related(_squished(follow), s) for s in starts)


def _corruptions(text: str, rng) -> list[str]:
    lines = text.splitlines()
    out = []
    for _ in range(3):
        chars = list(text)
        i, j = (int(k) for k in rng.integers(len(chars), size=2))
        deleted = chars[:i] + chars[i + 1:]
        doubled = chars[:i] + [chars[j]] + chars[i:]
        chars[i], chars[j] = chars[j], chars[i]
        a, b = (int(k) for k in rng.integers(len(lines), size=2))
        dropped = lines[:a] + lines[a + 1:]
        copied = lines[:a] + [lines[b]] + lines[a:]
        out += ["".join(deleted), "".join(doubled), "".join(chars),
                "\n".join(dropped), "\n".join(copied)]
    return out


@pytest.mark.parametrize("side, variant", PACKAGED)
def test_parse_agrees_with_the_backtracking_oracle(side, variant):
    grammar = load_grammar(side, variant)
    rng = np.random.default_rng(1000 + 7 * SIDES.index(side) + list(Variant).index(variant))
    client = ExpandingMockClient(seed=3)
    texts = []
    for _ in range(8):
        text = render_program(valid_tree(grammar, rng, length=300))
        edited = extract_code(client.complete(build_prompt(grammar, text)).text)
        texts += [text, edited, *_corruptions(text, rng), *_corruptions(edited, rng)]
    accepted = 0
    for text in texts:
        expected = oracle_parse_program(text, grammar)
        if expected is None:
            with pytest.raises(ProgramParseError):
                parse_program(text, grammar)
        else:
            tree = parse_program(text, grammar)
            assert tree_equal(tree, expected)
            assert render_program(tree) == render_program(expected)
            accepted += 1
    assert 16 <= accepted < len(texts)  # both outcomes are exercised
