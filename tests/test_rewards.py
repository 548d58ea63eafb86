"""Reward table contents, phase boundaries, and step scoring.

The expected penalty schedule is typed out here independently of the
packaged JSON so the two cannot drift apart unnoticed.
"""

from __future__ import annotations

import pytest

from cyberevo.errors import ScenarioConfigError
from cyberevo.scenario.rewards import (
    ACCESS_SERVICE_FAILS,
    EVENT_KINDS,
    LOCAL_WORK_FAILS,
    PHASE1,
    PHASE2A,
    PHASE2B,
    PHASES,
    RED_IMPACT_ACCESS,
    REWARD_ZONES,
    RewardTable,
    StepEvent,
    phase_of,
    reward_for,
)

from helpers import packaged_reward_cells

# Rows are (LocalWorkFails, AccessServiceFails, RedImpactAccess) per zone.
EXPECTED_ROWS = {
    PHASE1: {
        "HQ Network": (-1, -1, -3),
        "Contractor Network": (0, -5, -5),
        "Restricted Zone A": (-1, -3, -1),
        "Operational Zone A": (-1, -1, -1),
        "Restricted Zone B": (-1, -3, -1),
        "Operational Zone B": (-1, -1, -1),
        "Internet": (0, 0, 0),
    },
    PHASE2A: {
        "HQ Network": (-1, -1, -3),
        "Contractor Network": (0, 0, 0),
        "Restricted Zone A": (-2, -1, -3),
        "Operational Zone A": (-10, 0, -10),
        "Restricted Zone B": (-1, -1, -1),
        "Operational Zone B": (-1, -1, -1),
        "Internet": (0, 0, 0),
    },
    PHASE2B: {
        "HQ Network": (-1, -1, -3),
        "Contractor Network": (0, 0, 0),
        "Restricted Zone A": (-1, -3, -3),
        "Operational Zone A": (-1, -1, -1),
        "Restricted Zone B": (-2, -3, -3),
        "Operational Zone B": (-10, 0, -10),
        "Internet": (0, 0, 0),
    },
}

KIND_ORDER = (LOCAL_WORK_FAILS, ACCESS_SERVICE_FAILS, RED_IMPACT_ACCESS)


def expected_value(phase: str, zone: str, kind: str) -> float:
    return float(EXPECTED_ROWS[phase][zone][KIND_ORDER.index(kind)])


def test_expected_table_covers_all_cells():
    assert set(EXPECTED_ROWS) == set(PHASES)
    for rows in EXPECTED_ROWS.values():
        assert set(rows) == set(REWARD_ZONES)
    assert set(KIND_ORDER) == set(EVENT_KINDS)


def test_default_table_matches_expected_schedule_exactly():
    table = RewardTable.default()
    for phase in PHASES:
        for zone in REWARD_ZONES:
            for kind in EVENT_KINDS:
                assert table.lookup(phase, zone, kind) == expected_value(phase, zone, kind), (
                    phase, zone, kind,
                )


def test_highlighted_cells():
    table = RewardTable.default()
    assert table.lookup(PHASE2A, "Operational Zone A", LOCAL_WORK_FAILS) == -10
    assert table.lookup(PHASE1, "Contractor Network", ACCESS_SERVICE_FAILS) == -5


def test_lookup_unknown_cell_raises():
    table = RewardTable.default()
    with pytest.raises(ScenarioConfigError):
        table.lookup("phase3", "HQ Network", LOCAL_WORK_FAILS)
    with pytest.raises(ScenarioConfigError):
        table.lookup(PHASE1, "Atlantis", LOCAL_WORK_FAILS)
    with pytest.raises(ScenarioConfigError):
        table.lookup(PHASE1, "HQ Network", "CoffeeRunFails")


def test_table_validation_rejects_missing_and_positive_cells():
    cells = packaged_reward_cells()
    del cells[PHASE1]["HQ Network"][LOCAL_WORK_FAILS]
    with pytest.raises(ScenarioConfigError):
        RewardTable(cells)
    cells = packaged_reward_cells()
    cells[PHASE2B]["Internet"][RED_IMPACT_ACCESS] = 1.0
    with pytest.raises(ScenarioConfigError):
        RewardTable(cells)
    cells = packaged_reward_cells()
    del cells[PHASE2A]
    with pytest.raises(ScenarioConfigError):
        RewardTable(cells)


def test_phase_of_boundaries():
    boundaries = (25, 50)
    assert phase_of(0, boundaries, 75) == PHASE1
    assert phase_of(24, boundaries, 75) == PHASE1
    assert phase_of(25, boundaries, 75) == PHASE2A
    assert phase_of(49, boundaries, 75) == PHASE2A
    assert phase_of(50, boundaries, 75) == PHASE2B
    assert phase_of(74, boundaries, 75) == PHASE2B


def test_phase_of_rejects_bad_steps_and_boundaries():
    with pytest.raises(ScenarioConfigError):
        phase_of(-1, (25, 50), 75)
    with pytest.raises(ScenarioConfigError):
        phase_of(75, (25, 50), 75)
    with pytest.raises(ScenarioConfigError):
        phase_of(0, (50, 25), 75)
    with pytest.raises(ScenarioConfigError):
        phase_of(0, (0, 50), 75)
    with pytest.raises(ScenarioConfigError):
        phase_of(0, (25, 80), 75)


def test_reward_for_matches_recount_oracle():
    table = RewardTable.default()
    # Repeated occurrences are repeated events, each charged in full.
    events = (
        3 * [StepEvent("Operational Zone A", LOCAL_WORK_FAILS)]
        + [StepEvent("HQ Network", RED_IMPACT_ACCESS)]
        + 2 * [StepEvent("Contractor Network", ACCESS_SERVICE_FAILS)]
        + 5 * [StepEvent("Internet", LOCAL_WORK_FAILS)]
    )
    for phase in PHASES:
        expected = (
            3 * expected_value(phase, "Operational Zone A", LOCAL_WORK_FAILS)
            + expected_value(phase, "HQ Network", RED_IMPACT_ACCESS)
            + 2 * expected_value(phase, "Contractor Network", ACCESS_SERVICE_FAILS)
            + 5 * expected_value(phase, "Internet", LOCAL_WORK_FAILS)
        )
        assert reward_for(events, phase, table) == expected


def test_reward_for_empty_events_is_zero():
    assert reward_for([], PHASE1, RewardTable.default()) == 0.0
