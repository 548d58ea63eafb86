"""Matrix controllers: layout, normalization, sampling, genome decoding."""

from __future__ import annotations

import numpy as np
import pytest

from cyberevo.controllers.matrix import (
    BLUE_MATRIX_ACTIONS,
    DISCRETE_LEVELS,
    RED_MATRIX_ACTIONS,
    MatrixController,
    cells_per_controller,
    decode_matrix_team,
    matrix_actions,
    normalize_row,
    team_genome_length,
)
from cyberevo.errors import ControllerError
from cyberevo.scenario.actions import BLUE_ACTIONS, RED_ACTIONS
from cyberevo.scenario.engine import team_size


# ---------------------------------------------------------------------------
# layout


def test_matrix_action_sets_drop_only_the_excluded_action():
    assert RED_MATRIX_ACTIONS == tuple(a for a in RED_ACTIONS if a != "Withdraw")
    assert BLUE_MATRIX_ACTIONS == tuple(a for a in BLUE_ACTIONS if a != "Sleep")
    assert len(RED_MATRIX_ACTIONS) == 9
    assert len(BLUE_MATRIX_ACTIONS) == 7
    assert "Sleep" in RED_MATRIX_ACTIONS  # red may idle; blue may not


def test_cell_counts_and_genome_lengths():
    assert cells_per_controller("red") == 8 * 9 == 72
    assert cells_per_controller("blue") == 6 * 7 == 42
    # A single shared controller keeps the fixed padded length.
    assert team_genome_length("red", "one") == 180
    assert team_genome_length("blue", "one") == 180
    # One controller per member needs the full product.
    assert team_genome_length("red", "many") == 72 * 6 == 432
    assert team_genome_length("blue", "many") == 42 * 5 == 210
    assert team_size("red", "many") == 6
    assert team_size("blue", "many") == 5
    with pytest.raises(ControllerError):
        team_genome_length("red", "several")
    with pytest.raises(ControllerError):
        matrix_actions("green")


# ---------------------------------------------------------------------------
# normalization


def test_normalize_row_scales_to_unit_sum():
    row = normalize_row([1.0, 3.0, 0.0, 4.0])
    assert np.allclose(row, [0.125, 0.375, 0.0, 0.5])
    assert row.sum() == pytest.approx(1.0)


def test_normalize_row_keeps_structural_cells_at_zero():
    row = normalize_row([2.0, None, 2.0])
    assert np.allclose(row, [0.5, 0.0, 0.5])


def test_normalize_row_all_zero_live_cells_fall_back_to_uniform():
    row = normalize_row([0.0, None, 0.0, 0.0])
    assert np.allclose(row, [1 / 3, 0.0, 1 / 3, 1 / 3])


def test_normalize_row_is_idempotent():
    once = normalize_row([0.2, 0.5, None, 0.1])
    twice = normalize_row([v if keep else None for v, keep in zip(once, [1, 1, 0, 1])])
    assert np.allclose(once, twice)


def test_normalize_row_rejects_degenerate_rows():
    with pytest.raises(ControllerError):
        normalize_row([None, None])
    with pytest.raises(ControllerError):
        normalize_row([0.5, -0.1])


# ---------------------------------------------------------------------------
# controller construction and sampling


def blue_rows(fill: float = 1.0) -> dict[str, list[float]]:
    return {s: [fill] * len(BLUE_MATRIX_ACTIONS)
            for s in ("CN", "SN", "DN", "CM", "SM", "DM")}


def test_controller_requires_every_state_row_exactly():
    rows = blue_rows()
    del rows["DM"]
    with pytest.raises(ControllerError):
        MatrixController("blue", rows)
    rows = blue_rows()
    rows["XX"] = rows["CN"]
    with pytest.raises(ControllerError):
        MatrixController("blue", rows)
    rows = blue_rows()
    rows["CN"] = rows["CN"][:-1]
    with pytest.raises(ControllerError):
        MatrixController("blue", rows)


def test_sample_respects_degenerate_rows():
    rows = blue_rows(0.0)
    rows["CN"] = [0, 0, 1.0, 0, 0, 0, 0]
    controller = MatrixController("blue", rows)
    rng = np.random.default_rng(0)
    assert all(
        controller.sample("CN", rng) == BLUE_MATRIX_ACTIONS[2] for _ in range(50)
    )
    with pytest.raises(ControllerError):
        controller.sample("K", rng)


def test_sample_frequencies_track_probabilities():
    rows = blue_rows(0.0)
    rows["SN"] = [0.5, 0.25, 0.25, 0, 0, 0, 0]
    controller = MatrixController("blue", rows)
    rng = np.random.default_rng(7)
    n = 20_000
    counts = {a: 0 for a in BLUE_MATRIX_ACTIONS}
    for _ in range(n):
        counts[controller.sample("SN", rng)] += 1
    for action, p in zip(BLUE_MATRIX_ACTIONS, [0.5, 0.25, 0.25, 0, 0, 0, 0]):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[action] - n * p) <= 3 * sigma + 1e-9, action


class FixedDraw:
    """A stream whose every ``random()`` returns one value."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


@pytest.mark.parametrize("row", [
    [0.3, 0, 0.1, 0.2, 0, 0.15, 0.25],
    [1.0] * 7,  # its cumulative sum ends just short of 1
    [0, 0, 0, 0, 0, 0, 1.0],
])
def test_sample_index_is_searchsorted_right_for_every_draw(row):
    rows = blue_rows(0.0)
    rows["SN"] = row
    controller = MatrixController("blue", rows)
    cums = np.cumsum(controller.rows["SN"])
    cut_points = [v for c in cums for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    draws = [0.0, np.nextafter(1.0, 0.0), *cut_points, *np.random.default_rng(11).random(100_000)]
    expected = np.minimum(np.searchsorted(cums, draws, side="right"), len(BLUE_MATRIX_ACTIONS) - 1)
    for x, index in zip(draws, expected):
        assert controller.sample("SN", FixedDraw(float(x))) == BLUE_MATRIX_ACTIONS[index], x


def test_decide_classifies_then_samples():
    rows = blue_rows(0.0)
    rows["DM"] = [0, 0, 0, 0, 0, 0, 1.0]  # all mass on the last action
    controller = MatrixController("blue", rows)

    class FakeContext:
        def counters(self):
            return {"confirmed_compromised": 2}

    action, heuristic = controller.decide(FakeContext(), np.random.default_rng(1))
    assert action == BLUE_MATRIX_ACTIONS[-1]
    assert heuristic == "random_target"


# ---------------------------------------------------------------------------
# genome decoding


def test_continuous_decode_reads_cells_row_major():
    cells = cells_per_controller("blue")
    genome = np.zeros(team_genome_length("blue", "one"))
    genome[0] = 1.0  # CN row, first action
    genome[7 + 2] = 1.0  # SN row, third action
    team = decode_matrix_team(genome, "blue", "one")
    assert len(team) == 1
    controller = team[0]
    assert np.allclose(controller.rows["CN"], [1, 0, 0, 0, 0, 0, 0])
    assert np.allclose(controller.rows["SN"], [0, 0, 1, 0, 0, 0, 0])
    # untouched rows fall back to uniform over their live cells
    assert np.allclose(controller.rows["DM"], np.full(7, 1 / 7))
    assert genome.shape[0] > cells  # the padding genes were simply ignored


def test_many_mode_gives_each_member_its_own_controller():
    cells = cells_per_controller("red")
    genome = np.zeros(team_genome_length("red", "many"))
    genome[0] = 1.0  # member 0: K row favours the first action
    genome[cells + 1] = 1.0  # member 1: K row favours the second action
    team = decode_matrix_team(genome, "red", "many")
    assert len(team) == team_size("red", "many")
    assert np.argmax(team[0].rows["K"]) == 0
    assert np.argmax(team[1].rows["K"]) == 1


def test_discrete_decode_maps_codes_onto_levels():
    cells = cells_per_controller("blue")
    genome = np.zeros(team_genome_length("blue", "one"), dtype=int)
    genome[:4] = [0, 1, 2, 3]
    team = decode_matrix_team(genome, "blue", "one", encoding="discrete4")
    row = team[0].rows["CN"]
    expected = normalize_row(list(DISCRETE_LEVELS) + [0.0, 0.0, 0.0])
    assert np.allclose(row, expected)
    assert cells == 42


def test_decode_validates_genome_shape_and_range():
    with pytest.raises(ControllerError):
        decode_matrix_team(np.zeros(10), "blue", "one")
    with pytest.raises(ControllerError):
        decode_matrix_team(np.full(180, 1.5), "blue", "one")
    with pytest.raises(ControllerError):
        decode_matrix_team(np.full(180, 4), "blue", "one", encoding="discrete4")
    with pytest.raises(ControllerError):
        decode_matrix_team(np.zeros(180), "blue", "one", encoding="base64")
