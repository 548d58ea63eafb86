"""Packaged grammar variants: fixed targets, evolved targets, wider senses."""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cyberevo.errors import GrammarVariantError
from cyberevo.grammar.ast import IfStatement, TargetAssign
from cyberevo.grammar.model import NonTerminal, Terminal
from cyberevo.grammar.variants import (
    SIDES,
    Variant,
    grammar_asset_name,
    load_grammar,
)
from cyberevo.evolution import RuleTeamDecoder
from cyberevo.llm import GRAMMAR_HEADER, PROGRAM_HEADER, build_prompt

from helpers import EXTRA_OBSERVATIONS, fixed_target, has_target_section, observation_terminals

ALL_VARIANTS = tuple(Variant)
FIXED_TARGET_VARIANTS = {
    Variant.BASELINE: "random_target",
    Variant.TR: "random_target",
    Variant.TN: "last_target",
    Variant.TO: "first_target",
}


BASELINE_TARGET = Terminal("target_heuristic = random_target")


def without_start(grammar):
    return {name: rule for name, rule in grammar.rules.items() if name != grammar.start}


def baseline_sections_around_target(side):
    """The baseline's start production split at its fixed target terminal."""
    baseline = load_grammar(side)
    (sections,) = baseline.productions(baseline.start)
    at = sections.index(BASELINE_TARGET)
    return sections[:at], sections[at + 1:]


def test_packaged_files_render_back_byte_for_byte():
    # The LLM prompt's grammar section is the packaged file's text, as written.
    for side in SIDES:
        for variant in ALL_VARIANTS:
            name = grammar_asset_name(side, variant)
            text = resources.files("cyberevo.grammar").joinpath(f"data/{name}").read_text()
            prompt = build_prompt(load_grammar(side, variant), "action = Sleep")
            section = prompt.partition(f"{GRAMMAR_HEADER}\n\n")[2].partition(f"\n\n{PROGRAM_HEADER}")[0]
            assert section == text.strip(), name


def test_packaged_files_match_their_pinned_digests():
    # Moving a rule renders back byte for byte but changes the LLM prompt;
    # an intended grammar edit re-pins golden/grammar_digests.json.
    pinned = json.loads((Path(__file__).parent / "golden" / "grammar_digests.json").read_text())
    data = resources.files("cyberevo.grammar").joinpath("data")
    packaged = sorted(entry.name for entry in data.iterdir() if entry.name.endswith(".grammar"))
    assert packaged == sorted(pinned)
    for name in packaged:
        digest = hashlib.sha256(data.joinpath(name).read_bytes()).hexdigest()
        assert digest == pinned[name], f"{name} differs from its pinned sha256"


def test_baseline_and_tr_are_the_same_language():
    for side in ("red", "blue"):
        assert load_grammar(side, Variant.TR).rules == load_grammar(side).rules


def test_fixed_target_variants_hardcode_their_heuristic():
    for side in ("red", "blue"):
        baseline = load_grammar(side)
        before, after = baseline_sections_around_target(side)
        for variant, heuristic in FIXED_TARGET_VARIANTS.items():
            grammar = load_grammar(side, variant)
            assert fixed_target(grammar) == heuristic, (side, variant)
            assert not has_target_section(grammar)
            # only the target terminal of the start rule differs from the baseline
            assert grammar.start == baseline.start
            assert without_start(grammar) == without_start(baseline), (side, variant)
            swapped = Terminal(f"target_heuristic = {heuristic}")
            assert grammar.productions(grammar.start) == (before + (swapped,) + after,)


def test_tc_opens_the_target_section():
    for side in ("red", "blue"):
        baseline = load_grammar(side)
        tc = load_grammar(side, Variant.TC)
        assert set(tc.rules) - set(baseline.rules) == {
            "th_statements", "th_statement", "target_heuristic",
        }
        assert fixed_target(tc) is None
        assert has_target_section(tc)
        section = tc.productions(tc.start)[0]
        assert Terminal("#Select target") in section
        before, after = baseline_sections_around_target(side)
        opened = (Terminal("#Select target"), NonTerminal("th_statements"))
        assert tc.start == baseline.start
        assert tc.productions(tc.start) == (before + opened + after,)
        assert tc.productions("th_statements") == (
            (NonTerminal("th_statement"),),
            (NonTerminal("th_statement"), NonTerminal("th_statements")),
        )
        assert tc.productions("th_statement") == (
            (Terminal("if"), NonTerminal("conditions"), Terminal(":"),
             NonTerminal("th_statement")),
            (Terminal("target_heuristic ="), NonTerminal("target_heuristic")),
        )
        heuristics = [p[0].value for p in tc.productions("target_heuristic")]
        assert heuristics == ["random_target", "first_target", "last_target"]
        # everything below the scaffold is untouched
        for name in baseline.rules:
            if name != baseline.start:
                assert tc.rules[name] == baseline.rules[name]


def test_oe_prepends_three_observations():
    for side in ("red", "blue"):
        baseline = load_grammar(side)
        oe = load_grammar(side, Variant.OE)
        obs = observation_terminals(oe)
        assert len(obs) == 5
        assert obs[:3] == EXTRA_OBSERVATIONS
        assert obs[3:] == observation_terminals(baseline)
        for name in baseline.rules:
            if name != "observations":
                assert oe.rules[name] == baseline.rules[name]
        assert set(oe.rules) == set(baseline.rules)


def leaf_heuristics(statements):
    found = []
    stack = list(statements)
    while stack:
        node = stack.pop()
        if isinstance(node, IfStatement):
            stack.append(node.body)
        elif isinstance(node, TargetAssign):
            found.append(node.heuristic)
    return found


def test_fixed_variants_consume_no_codons_for_targets():
    rng = np.random.default_rng(31)
    for variant, heuristic in FIXED_TARGET_VARIANTS.items():
        decoder = RuleTeamDecoder("red", variant)
        seen = 0
        while seen < 50:
            individual = decoder.decode(decoder.random_genome(rng))
            if not individual.valid:
                continue
            seen += 1
            assert individual.team[0].ast.target_statements == (TargetAssign(heuristic),)


def test_tc_actually_evolves_target_choices():
    rng = np.random.default_rng(32)
    decoder = RuleTeamDecoder("red", Variant.TC)
    heuristics = set()
    for _ in range(200):
        individual = decoder.decode(decoder.random_genome(rng))
        if individual.valid:
            heuristics.update(leaf_heuristics(individual.team[0].ast.target_statements))
    assert len(heuristics) >= 2  # the section is genuinely under evolutionary control


def test_asset_names_and_variant_coercion():
    assert grammar_asset_name("red", Variant.TC) == "red_tc.grammar"
    assert grammar_asset_name("blue") == "blue_baseline.grammar"
    assert grammar_asset_name("blue", "oe") == "blue_oe.grammar"
    assert Variant("tn") is Variant.TN
    with pytest.raises(GrammarVariantError):
        grammar_asset_name("green")
    with pytest.raises(ValueError):
        Variant("tx")
