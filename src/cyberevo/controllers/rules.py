"""Rule controllers: interpret decision-tree programs over observations.

A rule controller owns an abstract syntax tree of ``if``/assignment
statements.  Each decision evaluates every statement top to bottom; the
last executed assignment to the action (and, when present, to the
target heuristic) wins.  Unassigned slots fall back to Sleep and the
random target heuristic.

A decision reads only the observation its decision context gives, never
the stream, so each controller memoizes its decisions by observation.
The controller is frozen, so its program cannot change under the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import ControllerError
from ..grammar.ast import (
    ActionAssign,
    Condition,
    IfStatement,
    ObsTest,
    RuleAst,
    Statement,
    SuccessTest,
    TargetAssign,
)
from ..scenario.actions import is_legal
from ..scenario.observations import Observation
from ..seeds import ScalarStream
from .base import FIRST_TARGET, RANDOM_TARGET, TARGET_HEURISTICS

DEFAULT_ACTION = "Sleep"


# The grammars' observation functions; each reads the Observation field
# of the same name.
OBSERVATION_FUNCTIONS = (
    "connections", "files_user", "files_root", "n_servers", "root_access_levels",
)


def resolve_target(
    heuristic: str, hosts: Sequence[str], rng: ScalarStream
) -> Optional[str]:
    """Pick a concrete target from an ordered candidate list.

    ``first_target`` is the oldest entry, ``last_target`` the newest and
    ``random_target`` draws one ``rng.integers`` over the list; an empty
    candidate list resolves to None.
    """
    if heuristic == RANDOM_TARGET:
        return hosts[rng.integers(len(hosts))] if hosts else None
    if heuristic not in TARGET_HEURISTICS:
        raise ControllerError(f"unknown target heuristic {heuristic!r}")
    if not hosts:
        return None
    return hosts[0] if heuristic == FIRST_TARGET else hosts[-1]


def _eval_operator(op, observation: Observation) -> bool:
    if isinstance(op, SuccessTest):
        return observation.success == op.literal
    value = getattr(observation, op.fn)
    if op.op == ">":
        return value > op.constant
    if op.op == "<":
        return value < op.constant
    return value == op.constant


def _eval_condition(cond: Condition, observation: Observation) -> bool:
    left = _eval_operator(cond.left, observation)
    if cond.kind == "single":
        return left
    if cond.kind == "and":
        return left and _eval_operator(cond.right, observation)
    return left or _eval_operator(cond.right, observation)


def _validate_statements(
    statements: Sequence[Statement], side: str, label: str
) -> None:
    stack = list(statements)
    while stack:
        node = stack.pop()
        if isinstance(node, IfStatement):
            for op in (node.condition.left, node.condition.right):
                if isinstance(op, ObsTest) and op.fn not in OBSERVATION_FUNCTIONS:
                    raise ControllerError(
                        f"{label}: unknown observation function {op.fn!r}"
                    )
            stack.append(node.body)
        elif isinstance(node, ActionAssign):
            if not is_legal(side, node.action):
                raise ControllerError(
                    f"{label}: action {node.action!r} is not legal for side {side!r}"
                )
        elif isinstance(node, TargetAssign):
            if node.heuristic not in TARGET_HEURISTICS:
                raise ControllerError(
                    f"{label}: unknown target heuristic {node.heuristic!r}"
                )
        else:
            raise ControllerError(f"{label}: unsupported statement {node!r}")


@dataclass(frozen=True)
class RuleController:
    """Decision-tree controller for one agent slot."""

    ast: RuleAst
    side: str
    _decisions: dict[Observation, tuple[str, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.side not in ("red", "blue"):
            raise ControllerError(f"side must be 'red' or 'blue', got {self.side!r}")
        _validate_statements(self.ast.action_statements, self.side, "action section")
        _validate_statements(self.ast.target_statements, self.side, "target section")

    def decide(self, context, rng: ScalarStream) -> tuple[str, str]:
        observation = context.observation()
        decision = self._decisions.get(observation)
        if decision is None:
            decision = self._decisions[observation] = self._walk(observation)
        return decision

    def _walk(self, observation: Observation) -> tuple[str, str]:
        """Run the program on one observation: the decision `decide` memoizes."""
        action = DEFAULT_ACTION
        heuristic = RANDOM_TARGET
        program = self.ast.action_statements + self.ast.target_statements
        for statement in _walk_fired(program, observation):
            if isinstance(statement, ActionAssign):
                action = statement.action
            else:
                heuristic = statement.heuristic
        return action, heuristic


def _walk_fired(statements: Sequence[Statement], observation: Observation):
    """Yield executed leaf assignments in program order."""
    for statement in statements:
        node = statement
        while isinstance(node, IfStatement):
            if not _eval_condition(node.condition, observation):
                node = None
                break
            node = node.body
        if node is not None:
            yield node

