"""Typed decision tree produced by decoding a rule-controller genome."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class ObsTest:
    """Compare an observation function's value against a small constant."""

    fn: str
    op: str
    constant: int


@dataclass(frozen=True)
class SuccessTest:
    """Compare the success flag against TRUE, FALSE or UNKNOWN."""

    literal: str


Operator = Union[ObsTest, SuccessTest]


@dataclass(frozen=True)
class Condition:
    kind: str  # "single", "and" or "or"
    left: Operator
    right: Operator | None = None


@dataclass(frozen=True)
class ActionAssign:
    action: str


@dataclass(frozen=True)
class TargetAssign:
    heuristic: str


Statement = Union["IfStatement", ActionAssign, TargetAssign]


@dataclass(frozen=True)
class IfStatement:
    condition: Condition
    body: Statement


@dataclass(frozen=True)
class RuleAst:
    """A controller body: an action section plus an optional target section."""

    action_statements: tuple[Statement, ...]
    target_statements: tuple[Statement, ...] = ()
