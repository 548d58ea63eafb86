"""Controller representations: stochastic matrices, decision-tree rules, fixed adversaries."""

from .base import (
    FIRST_TARGET,
    LAST_TARGET,
    RANDOM_TARGET,
    TARGET_HEURISTICS,
    Controller,
    SleepController,
)
from .classifier import classify_counters, classify_state, state_priority
from .fsm import load_fsm_adversary
from .matrix import (
    BLUE_TEAM_SIZE,
    RED_TEAM_SIZE,
    MatrixController,
    cells_per_controller,
    decode_matrix_team,
    matrix_actions,
    normalize_row,
    team_genome_length,
    team_size,
)
from .rules import OBSERVATION_FUNCTIONS, RuleController, resolve_target

__all__ = [
    "BLUE_TEAM_SIZE",
    "Controller",
    "FIRST_TARGET",
    "LAST_TARGET",
    "MatrixController",
    "OBSERVATION_FUNCTIONS",
    "RANDOM_TARGET",
    "RED_TEAM_SIZE",
    "RuleController",
    "SleepController",
    "TARGET_HEURISTICS",
    "cells_per_controller",
    "classify_counters",
    "classify_state",
    "decode_matrix_team",
    "load_fsm_adversary",
    "matrix_actions",
    "normalize_row",
    "resolve_target",
    "state_priority",
    "team_genome_length",
    "team_size",
]
