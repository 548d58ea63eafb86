"""Matrix controllers: one action probability row per classifier state.

Rows may contain ``None`` for structurally disabled cells; those never
receive probability mass.  Evolved controllers use fully live matrices
decoded from real-valued or discrete genomes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from ..errors import ControllerError
from ..scenario import actions as act
from ..scenario.engine import team_size
from ..seeds import ScalarStream
from .base import RANDOM_TARGET
from .classifier import classify_state, state_priority

RED_MATRIX_ACTIONS = tuple(a for a in act.RED_ACTIONS if a != "Withdraw")
BLUE_MATRIX_ACTIONS = tuple(a for a in act.BLUE_ACTIONS if a != "Sleep")

DISCRETE_LEVELS = (0.0, 0.25, 0.5, 0.75)

# The given genome length for single-controller state machine teams;
# layouts smaller than this leave trailing genes as inert padding.
TEAM_GENOME_LENGTH = 180


def matrix_actions(side: str) -> tuple[str, ...]:
    if side == act.RED:
        return RED_MATRIX_ACTIONS
    if side == act.BLUE:
        return BLUE_MATRIX_ACTIONS
    raise ControllerError(f"no matrix layout for side {side!r}")


def cells_per_controller(side: str) -> int:
    return len(state_priority(side)) * len(matrix_actions(side))


def team_genome_length(side: str, mode: str = "one") -> int:
    """Genome length for a team of matrix controllers.

    One shared controller keeps the fixed team length with padding; one
    controller per member needs the full product of cells and members.
    """
    count = team_size(side, mode)
    if count == 1:
        return max(TEAM_GENOME_LENGTH, cells_per_controller(side))
    return cells_per_controller(side) * count


def normalize_row(values: Sequence[float | None]) -> np.ndarray:
    """Scale live entries to sum to one.

    ``None`` marks a structural cell: it keeps probability zero in the
    result.  A row of all-zero live entries falls back to uniform over
    the live cells.  A row with no live cells is an error.
    """
    arr = np.array([np.nan if v is None else float(v) for v in values], dtype=float)
    live = ~np.isnan(arr)
    if not live.any():
        raise ControllerError("row has no live cells to normalize")
    if (arr[live] < 0).any():
        raise ControllerError("row contains negative entries")
    out = np.zeros(arr.shape[0], dtype=float)
    total = float(arr[live].sum())
    if total <= 0.0:
        out[live] = 1.0 / int(live.sum())
    else:
        out[live] = arr[live] / total
    return out


class MatrixController:
    """Per-state categorical action sampler."""

    def __init__(self, side: str, rows: dict[str, Sequence[float | None]]):
        self.side = side
        self.states = state_priority(side)
        self.actions = matrix_actions(side)
        missing = set(self.states) - set(rows)
        if missing:
            raise ControllerError(f"rows missing for states {sorted(missing)}")
        extra = set(rows) - set(self.states)
        if extra:
            raise ControllerError(f"rows given for unknown states {sorted(extra)}")
        self.rows: dict[str, np.ndarray] = {}
        self._cums: dict[str, list[float]] = {}
        for state, row in rows.items():
            if len(row) != len(self.actions):
                raise ControllerError(
                    f"row {state} has {len(row)} cells, expected {len(self.actions)}"
                )
            probs = normalize_row(row)
            self.rows[state] = probs
            self._cums[state] = np.cumsum(probs).tolist()

    def sample(self, state: str, rng: ScalarStream) -> str:
        """Draw one action of ``state``'s row with one ``rng.random()``."""
        if state not in self._cums:
            raise ControllerError(f"unknown state {state!r}")
        idx = bisect_right(self._cums[state], rng.random())
        return self.actions[min(idx, len(self.actions) - 1)]

    def decide(self, context, rng) -> tuple[str, str]:
        state = classify_state(self.side, context)
        return self.sample(state, rng), RANDOM_TARGET


def decode_matrix_team(
    genome: Sequence[float] | np.ndarray,
    side: str,
    mode: str = "one",
    encoding: str = "continuous",
) -> list[MatrixController]:
    """Decode a flat genome into a team's matrix controllers.

    Continuous genes live in [0, 1]; discrete genes are codes 0..3 that
    map onto (0.0, 0.25, 0.5, 0.75).  Genes are consumed row-major per
    controller; surplus genes are padding and stay unused.
    """
    cells = cells_per_controller(side)
    count = team_size(side, mode)
    needed = cells * count
    genome = np.asarray(genome)
    if genome.ndim != 1 or genome.shape[0] < needed:
        raise ControllerError(f"genome of length {genome.shape} cannot fill {needed} cells")
    if encoding == "continuous":
        values = genome.astype(float)
        if ((values < 0) | (values > 1)).any():
            raise ControllerError("continuous genes must lie in [0, 1]")
    elif encoding == "discrete4":
        codes = genome.astype(int)
        if ((codes < 0) | (codes > 3)).any():
            raise ControllerError("discrete genes must be codes 0..3")
        values = np.array(DISCRETE_LEVELS, dtype=float)[codes]
    else:
        raise ControllerError(f"unknown matrix encoding {encoding!r}")
    states = state_priority(side)
    n_actions = len(matrix_actions(side))
    team = []
    for k in range(count):
        block = values[k * cells:(k + 1) * cells].reshape(len(states), n_actions)
        rows = {state: block[i] for i, state in enumerate(states)}
        team.append(MatrixController(side, rows))
    return team
