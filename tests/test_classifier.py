"""Counter-threshold state classification."""

from __future__ import annotations

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberevo.controllers import classifier
from cyberevo.controllers.classifier import classify_counters, classify_state, state_priority
from cyberevo.controllers.fsm import load_fsm_adversary
from cyberevo.episodes import run_episode
from cyberevo.errors import ControllerError
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.engine import ScenarioSim

# Every counter the decision context computes, per side.
COUNTERS = {
    "red": (
        "known_hosts", "discovery_events", "services_discovered",
        "user_sessions", "root_sessions",
    ),
    "blue": (
        "zone_suspicious", "zone_failures", "flagged_suspicious",
        "confirmed_compromised", "analysed_clean",
    ),
}


def test_priority_orders_match_matrix_row_orders():
    assert state_priority("red") == ("K", "KD", "S", "SD", "U", "UD", "R", "RD")
    assert state_priority("blue") == ("CN", "SN", "DN", "CM", "SM", "DM")


def test_first_state_is_an_unconditional_default():
    assert classify_counters("red", {}) == "K"
    assert classify_counters("blue", {}) == "CN"


def test_unknown_side_is_rejected():
    with pytest.raises(ControllerError):
        state_priority("green")
    with pytest.raises(ControllerError):
        classify_counters("purple", {})


def test_last_matching_state_wins():
    # root_sessions matches both R and (with discovery) RD; RD is later.
    assert classify_counters("red", {"root_sessions": 2}) == "R"
    assert classify_counters("red", {"root_sessions": 2, "discovery_events": 1}) == "RD"
    # A root session dominates earlier scan/user states even when they match.
    assert classify_counters(
        "red",
        {"services_discovered": 3, "user_sessions": 1, "root_sessions": 1},
    ) == "R"


def test_red_progression_through_the_kill_chain():
    assert classify_counters("red", {"known_hosts": 4}) == "K"
    assert classify_counters("red", {"discovery_events": 1}) == "KD"
    assert classify_counters("red", {"services_discovered": 1}) == "S"
    assert classify_counters(
        "red", {"services_discovered": 1, "discovery_events": 1}
    ) == "SD"
    assert classify_counters("red", {"user_sessions": 1}) == "U"
    assert classify_counters(
        "red", {"user_sessions": 1, "discovery_events": 1}
    ) == "UD"


def test_blue_states_track_alerts_and_confirmations():
    assert classify_counters("blue", {"zone_suspicious": 1}) == "SN"
    assert classify_counters("blue", {"zone_failures": 1}) == "DN"
    assert classify_counters("blue", {"analysed_clean": 1}) == "CM"
    assert classify_counters("blue", {"flagged_suspicious": 2}) == "SM"
    assert classify_counters("blue", {"confirmed_compromised": 1}) == "DM"
    # Confirmed compromise outranks mere suspicion.
    assert classify_counters(
        "blue", {"zone_suspicious": 1, "confirmed_compromised": 1}
    ) == "DM"


def test_thresholds_are_minimums_not_exact_matches():
    assert classify_counters("red", {"services_discovered": 99}) == "S"
    assert classify_counters("blue", {"zone_failures": 17}) == "DN"


def test_unlisted_counters_are_ignored():
    assert classify_counters("red", {"mystery": 5}) == "K"
    assert classify_counters("blue", {"mystery": 5}) == "CN"


def test_every_threshold_counter_is_documented():
    tables_doc = {side: set(names) for side, names in COUNTERS.items()}
    table_text = resources.files("cyberevo.controllers").joinpath(
        "data/state_classifier.json"
    ).read_text()
    tables = json.loads(table_text)
    sim = ScenarioSim(ScenarioConfig(), seed=0)
    for side, agent in (("red", "red_0"), ("blue", "blue_hq")):
        for state, thresholds in tables[side]["states"].items():
            assert set(thresholds) <= tables_doc[side], (side, state)
        # the decision context computes exactly the documented counters
        assert set(sim.agent_context(agent).counters()) == tables_doc[side]


# ---------------------------------------------------------------------------
# classify_state's memo


class FixedCounters:
    """A decision context that answers only `counters`, with fixed values."""

    def __init__(self, counters: dict[str, int]):
        self._counters = counters

    def counters(self) -> dict[str, int]:
        return self._counters


def named_counters(side: str) -> set[str]:
    """The counters the side's truth table names."""
    tables = json.loads(
        resources.files("cyberevo.controllers").joinpath("data/state_classifier.json").read_text()
    )
    return {name for thresholds in tables[side]["states"].values() for name in thresholds}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    side=st.sampled_from(["red", "blue"]),
    values=st.lists(st.integers(0, 200), min_size=5, max_size=5),
)
def test_memoized_state_matches_the_truth_table(side, values):
    """The memo is shared across examples, so an entry made from one
    counter dict answers for every dict with the same clamped counters."""
    counters = dict(zip(COUNTERS[side], values))
    assert classify_state(side, FixedCounters(counters)) == classify_counters(side, counters)


def test_memo_holds_at_most_one_key_per_truth_table_outcome(monkeypatch):
    """Every threshold is 1, so each counter the table names adds one bit."""
    memo = {"red": {}, "blue": {}}
    monkeypatch.setattr(classifier, "_STATES", memo)
    blue, red = [load_fsm_adversary("blue")], [load_fsm_adversary("red")]
    run_episode(ScenarioConfig(), 7, blue, red)
    for side in ("red", "blue"):
        assert 2 <= len(memo[side]) <= 2 ** len(named_counters(side)), side
        assert {value for key in memo[side] for value in key} <= {0, 1}, side
    assert len(named_counters("red")) == 4 and len(named_counters("blue")) == 5


def test_classify_state_rejects_an_unknown_side():
    with pytest.raises(ControllerError):
        classify_state("green", FixedCounters({}))
