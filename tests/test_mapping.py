"""Genome-to-program mapping, checked against the sentential-form oracle."""

from __future__ import annotations

import numpy as np
import pytest

from cyberevo.grammar.ast import (
    ActionAssign,
    Condition,
    IfStatement,
    ObsTest,
    RuleAst,
    TargetAssign,
)
from cyberevo.grammar.mapping import MAX_WRAPS, map_genome, tree_terminals
from cyberevo.grammar.parse import parse_grammar
from cyberevo.grammar.variants import load_grammar

from helpers import mapping_result
from oracles import TOY_SPEC, all_genomes, grammar_to_spec, oracle_map, spec_to_text

TOY_GRAMMAR = parse_grammar(spec_to_text(TOY_SPEC))


# ---------------------------------------------------------------------------
# the oracle itself is anchored on hand-worked derivations


def test_oracle_hand_worked_examples():
    r = oracle_map([1, 0, 0], TOY_SPEC, "s")
    assert (r.phenotype, r.invalid, r.used_codons, r.wraps) == ("x y", False, 5, 1)
    r = oracle_map([0], TOY_SPEC, "s")
    assert (r.phenotype, r.invalid, r.used_codons, r.wraps) == ("x", False, 2, 1)
    r = oracle_map([], TOY_SPEC, "s")
    assert (r.phenotype, r.invalid, r.used_codons, r.wraps) == (None, True, 0, 0)
    r = oracle_map([1], TOY_SPEC, "s")
    assert (r.phenotype, r.invalid, r.used_codons, r.wraps) == (None, True, 3, 2)


# ---------------------------------------------------------------------------
# implementation vs oracle


def assert_agrees(genome, grammar, spec):
    result = mapping_result(genome, grammar)
    expected = oracle_map(list(genome), spec, grammar.start)
    assert result.invalid == expected.invalid, genome
    assert result.phenotype == expected.phenotype, genome
    assert result.used_codons == expected.used_codons, genome
    assert result.wraps == expected.wraps, genome


def test_mapping_agrees_with_oracle_on_small_exhaustive_set():
    for genome in all_genomes(3, 6):
        assert_agrees(genome, TOY_GRAMMAR, TOY_SPEC)


def test_mapping_agrees_with_oracle_on_random_long_genomes():
    rng = np.random.default_rng(11)
    for _ in range(300):
        genome = rng.integers(0, 256, size=10).tolist()
        assert_agrees(genome, TOY_GRAMMAR, TOY_SPEC)


def test_mapping_agrees_with_oracle_on_the_controller_grammars():
    rng = np.random.default_rng(12)
    for side in ("red", "blue"):
        grammar = load_grammar(side)
        spec = grammar_to_spec(grammar)
        for _ in range(150):
            genome = rng.integers(0, 256, size=40).tolist()
            result = mapping_result(genome, grammar)
            expected = oracle_map(genome, spec, grammar.start)
            assert result.invalid == expected.invalid
            assert result.phenotype == expected.phenotype
            assert result.used_codons == expected.used_codons


# ---------------------------------------------------------------------------
# pinned semantics


def test_every_expansion_consumes_a_codon_even_without_choice():
    chain = parse_grammar('s: a\na: "x"\n')
    result = mapping_result([0], chain)
    assert not result.invalid
    assert result.phenotype == "x"
    assert result.used_codons == 2  # both single-production rules consumed one
    assert result.wraps == 1


def test_wrap_budget_allows_three_full_reads():
    triple = parse_grammar('s: a a a\na: "x"\n')
    short = mapping_result([0], triple)
    assert short.invalid
    assert (short.used_codons, short.wraps) == (3, 2)
    enough = mapping_result([0, 0], triple)
    assert not enough.invalid
    assert enough.phenotype == "x x x"
    assert (enough.used_codons, enough.wraps) == (4, 1)
    assert MAX_WRAPS == 2


def test_empty_genome_is_invalid_not_an_error():
    assert map_genome([], TOY_GRAMMAR) is None
    result = mapping_result([], TOY_GRAMMAR)
    assert result.invalid
    assert result.phenotype is None
    assert result.tree is None and result.ast is None


def test_bad_codons_raise():
    with pytest.raises(ValueError):
        map_genome([1, -2], TOY_GRAMMAR)
    with pytest.raises(ValueError):
        map_genome([0.5], TOY_GRAMMAR)
    with pytest.raises(ValueError):
        map_genome(np.array([0.5]), TOY_GRAMMAR)


def test_integer_arrays_are_checked_in_one_pass():
    with pytest.raises(ValueError, match="nonnegative integers, got np.int64\\(-3\\)"):
        map_genome(np.array([1, 0, -3, 2], dtype=np.int64), TOY_GRAMMAR)

    def outcome(genome):
        try:
            return mapping_result(genome, TOY_GRAMMAR).phenotype
        except ValueError as exc:
            return str(exc)

    # The codon-by-codon check over the same numpy scalars is the reference.
    rng = np.random.default_rng(12)
    outcomes = set()
    for _ in range(40):
        array = rng.integers(-2, 30, size=6)
        outcomes.add(outcome(array))
        assert outcome(array) == outcome(list(array))
    assert len(outcomes) > 5 and any(o.startswith("codons must") for o in outcomes)


def test_modulo_selects_productions():
    # b has three alternatives; codons 2, 5 and 8 all hit index 2
    for codon in (2, 5, 8):
        result = mapping_result([1, 1, codon, 0, 0], TOY_GRAMMAR)
        assert result.phenotype == "w x"


def test_tree_terminals_reads_left_to_right():
    result = mapping_result([1, 0, 0, 1, 1, 0], TOY_GRAMMAR)
    assert not result.invalid
    assert " ".join(tree_terminals(result.tree)) == result.phenotype


# ---------------------------------------------------------------------------
# controller AST construction


def test_known_codons_decode_to_a_monitor_program():
    grammar = load_grammar("blue")
    result = mapping_result([0, 0, 1, 2], grammar)
    assert not result.invalid
    assert (result.used_codons, result.wraps) == (4, 0)
    assert result.phenotype == (
        "def select_action_and_target(observation, name): "
        "#Select action action = Monitor "
        "target_heuristic = random_target "
        "return action, target_heuristic"
    )
    assert result.ast == RuleAst(
        action_statements=(ActionAssign("Monitor"),),
        target_statements=(TargetAssign("random_target"),),
    )


def test_known_codons_decode_to_a_conditional_program():
    grammar = load_grammar("blue")
    result = mapping_result([0, 0, 0, 2, 0, 1, 0, 1, 3], grammar)
    assert not result.invalid
    assert (result.used_codons, result.wraps) == (10, 1)
    assert result.ast == RuleAst(
        action_statements=(
            IfStatement(
                condition=Condition(
                    kind="single",
                    left=ObsTest(fn="root_access_levels", op=">", constant=1),
                ),
                body=ActionAssign("AllowTrafficZone"),
            ),
        ),
        target_statements=(TargetAssign("random_target"),),
    )


def test_all_zero_codons_recurse_forever_and_come_back_invalid():
    grammar = load_grammar("blue")
    result = mapping_result([0] * 1000, grammar)
    assert result.invalid
    assert result.wraps == MAX_WRAPS


def test_toy_grammar_produces_no_ast():
    result = mapping_result([0, 0], TOY_GRAMMAR)
    assert not result.invalid
    assert result.ast is None
