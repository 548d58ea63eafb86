"""Rule controllers: condition evaluation, assignment order, targeting."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberevo.controllers.base import (
    FIRST_TARGET,
    LAST_TARGET,
    RANDOM_TARGET,
    SleepController,
)
from cyberevo.controllers.rules import OBSERVATION_FUNCTIONS, RuleController, resolve_target
from cyberevo.errors import ControllerError
from cyberevo.grammar.ast import (
    ActionAssign,
    Condition,
    IfStatement,
    ObsTest,
    RuleAst,
    SuccessTest,
    TargetAssign,
)
from cyberevo.scenario.observations import FALSE, TRUE, UNKNOWN, Observation
from helpers import FixedActionController

RNG = np.random.default_rng(0)


def obs(success=TRUE, **counts) -> Observation:
    """Observation with the given success flag and counts."""
    return Observation(success=success, **counts)


def seeing(observation: Observation) -> SimpleNamespace:
    """A decision context that gives ``observation``."""
    return SimpleNamespace(observation=lambda: observation)


def single(op) -> Condition:
    return Condition("single", op)


# ---------------------------------------------------------------------------
# observation functions


def test_each_observation_function_reads_its_field():
    assert set(OBSERVATION_FUNCTIONS) == {
        "connections", "files_user", "files_root", "n_servers", "root_access_levels",
    }
    for name in OBSERVATION_FUNCTIONS:
        ast = RuleAst(
            action_statements=(
                IfStatement(single(ObsTest(name, "=", 2)), ActionAssign("Impact")),
            )
        )
        controller = RuleController(ast, "red")
        others = {other: 1 for other in OBSERVATION_FUNCTIONS if other != name}
        assert controller.decide(seeing(obs(**others, **{name: 2})), RNG)[0] == "Impact"
        assert controller.decide(seeing(obs(**others, **{name: 1})), RNG)[0] == "Sleep"


# ---------------------------------------------------------------------------
# decide()


def test_defaults_apply_when_nothing_fires():
    ast = RuleAst(
        action_statements=(
            IfStatement(single(ObsTest("n_servers", ">", 5)), ActionAssign("Impact")),
        )
    )
    controller = RuleController(ast, "red")
    action, heuristic = controller.decide(seeing(obs(n_servers=1)), RNG)
    assert action == "Sleep"
    assert heuristic == RANDOM_TARGET


def test_last_executed_assignment_wins():
    ast = RuleAst(
        action_statements=(
            ActionAssign("Monitor"),
            ActionAssign("Analyse"),
            IfStatement(single(SuccessTest(FALSE)), ActionAssign("Restore")),
        )
    )
    controller = RuleController(ast, "blue")
    assert controller.decide(seeing(obs(success=TRUE)), RNG)[0] == "Analyse"
    assert controller.decide(seeing(obs(success=FALSE)), RNG)[0] == "Restore"


def test_comparison_operators():
    for op, value, fires in [
        (">", 3, True), (">", 2, False),
        ("<", 1, True), ("<", 2, False),
        ("=", 2, True), ("=", 3, False),
    ]:
        constant = 2
        observation = obs(n_servers=value)
        ast = RuleAst(
            action_statements=(
                IfStatement(
                    single(ObsTest("n_servers", op, constant)), ActionAssign("Impact")
                ),
            )
        )
        controller = RuleController(ast, "red")
        got = controller.decide(seeing(observation), RNG)[0]
        assert (got == "Impact") == fires, (op, value)


def test_and_or_connectives():
    left = ObsTest("n_servers", ">", 0)
    right = SuccessTest(TRUE)
    both = RuleAst(
        action_statements=(
            IfStatement(Condition("and", left, right), ActionAssign("Impact")),
        )
    )
    either = RuleAst(
        action_statements=(
            IfStatement(Condition("or", left, right), ActionAssign("Impact")),
        )
    )
    cases = [
        (obs(success=TRUE, n_servers=1), True, True),
        (obs(success=FALSE, n_servers=1), False, True),
        (obs(success=TRUE, n_servers=0), False, True),
        (obs(success=FALSE, n_servers=0), False, False),
    ]
    for observation, and_fires, or_fires in cases:
        assert (RuleController(both, "red").decide(seeing(observation), RNG)[0]
                == ("Impact" if and_fires else "Sleep"))
        assert (RuleController(either, "red").decide(seeing(observation), RNG)[0]
                == ("Impact" if or_fires else "Sleep"))


def test_nested_ifs_require_every_condition():
    ast = RuleAst(
        action_statements=(
            IfStatement(
                single(SuccessTest(TRUE)),
                IfStatement(
                    single(ObsTest("n_servers", ">", 0)), ActionAssign("Impact")
                ),
            ),
        )
    )
    controller = RuleController(ast, "red")
    assert controller.decide(seeing(obs(success=TRUE, n_servers=1)), RNG)[0] == "Impact"
    assert controller.decide(seeing(obs(success=TRUE, n_servers=0)), RNG)[0] == "Sleep"
    assert controller.decide(seeing(obs(success=FALSE, n_servers=1)), RNG)[0] == "Sleep"


def test_target_section_can_pick_heuristics_conditionally():
    ast = RuleAst(
        action_statements=(ActionAssign("Impact"),),
        target_statements=(
            TargetAssign(FIRST_TARGET),
            IfStatement(single(SuccessTest(FALSE)), TargetAssign(LAST_TARGET)),
        ),
    )
    controller = RuleController(ast, "red")
    assert controller.decide(seeing(obs(success=TRUE)), RNG) == ("Impact", FIRST_TARGET)
    assert controller.decide(seeing(obs(success=FALSE)), RNG) == ("Impact", LAST_TARGET)


# ---------------------------------------------------------------------------
# memoized decisions

BRANCHY = RuleAst(
    action_statements=(
        IfStatement(single(ObsTest("connections", ">", 1)), ActionAssign("ExploitRemoteService")),
        IfStatement(
            Condition("and", ObsTest("files_user", "=", 1), SuccessTest(FALSE)),
            ActionAssign("PrivilegeEscalate"),
        ),
        IfStatement(
            Condition("or", ObsTest("files_root", ">", 0), ObsTest("root_access_levels", "=", 2)),
            IfStatement(single(ObsTest("n_servers", "<", 2)), ActionAssign("Impact")),
        ),
    ),
    target_statements=(
        IfStatement(single(SuccessTest(TRUE)), TargetAssign(FIRST_TARGET)),
        IfStatement(single(ObsTest("connections", "=", 0)), TargetAssign(LAST_TARGET)),
    ),
)

observations = st.builds(
    Observation,
    st.sampled_from((TRUE, FALSE, UNKNOWN)),
    *[st.integers(0, 3) for _ in OBSERVATION_FUNCTIONS],
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sequence=st.lists(observations, min_size=1, max_size=40))
def test_memoized_decisions_equal_a_fresh_walk(sequence):
    controller = RuleController(BRANCHY, "red")
    for observation in sequence:
        # A new controller has an empty memo, so it walks the program.
        assert controller.decide(seeing(observation), RNG) == RuleController(
            BRANCHY, "red"
        ).decide(seeing(observation), RNG), observation
    for observation in sequence:
        first = controller.decide(seeing(observation), RNG)
        assert controller.decide(seeing(observation), RNG) is first
        assert controller._decisions[observation] is first


def test_a_rule_controller_and_its_observations_are_immutable():
    controller = RuleController(BRANCHY, "red")
    with pytest.raises(AttributeError):
        controller.ast = RuleAst(action_statements=())
    observation = obs(connections=2)
    with pytest.raises(AttributeError):
        observation.connections = 3
    assert getattr(observation, "connections") == 2
    assert hash(observation) == hash(obs(connections=2))


# ---------------------------------------------------------------------------
# validation


def test_construction_rejects_illegal_programs():
    with pytest.raises(ControllerError):
        RuleController(RuleAst(action_statements=(ActionAssign("Monitor"),)), "red")
    with pytest.raises(ControllerError):
        RuleController(RuleAst(action_statements=(ActionAssign("Impact"),)), "blue")
    with pytest.raises(ControllerError):
        RuleController(RuleAst(action_statements=()), "green")
    with pytest.raises(ControllerError):
        RuleController(
            RuleAst(action_statements=(TargetAssign("median_target"),)), "red"
        )
    with pytest.raises(ControllerError):
        RuleController(
            RuleAst(
                action_statements=(
                    IfStatement(
                        single(ObsTest("entropy", ">", 0)), ActionAssign("Impact")
                    ),
                )
            ),
            "red",
        )


def test_validation_reaches_nested_bodies():
    buried = IfStatement(
        single(SuccessTest(TRUE)),
        IfStatement(single(SuccessTest(FALSE)), ActionAssign("Monitor")),
    )
    with pytest.raises(ControllerError):
        RuleController(RuleAst(action_statements=(buried,)), "red")


# ---------------------------------------------------------------------------
# target resolution


def test_resolve_target_heuristics():
    hosts = ["h1", "h2", "h3"]
    rng = np.random.default_rng(1)
    assert resolve_target(FIRST_TARGET, hosts, rng) == "h1"
    assert resolve_target(LAST_TARGET, hosts, rng) == "h3"
    picks = {resolve_target(RANDOM_TARGET, hosts, rng) for _ in range(60)}
    assert picks == set(hosts)
    assert resolve_target(FIRST_TARGET, [], rng) is None
    with pytest.raises(ControllerError):
        resolve_target("middle_target", hosts, rng)


# ---------------------------------------------------------------------------
# trivial controllers


def test_sleep_and_fixed_controllers():
    rng = np.random.default_rng(2)
    assert SleepController("red").decide(None, rng) == ("Sleep", RANDOM_TARGET)
    fixed = FixedActionController("blue", "Monitor", FIRST_TARGET)
    assert fixed.decide(None, rng) == ("Monitor", FIRST_TARGET)
