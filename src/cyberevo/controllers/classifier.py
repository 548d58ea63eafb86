"""Counter-threshold state classification for matrix controllers.

The truth table lives in ``data/state_classifier.json`` so the mapping
from counters to states stays inspectable and editable.  The counters
come from the agent's decision context, not from its observation.  A
state matches when every listed counter meets its threshold; the last
matching state in priority order wins, which makes later, more severe
states dominate earlier ones.

`classify_state` memoizes its answer per side.  The table only tests
``counter >= threshold``, so clamping each counter to the largest
threshold the side's table names for it cannot change the state, and
a counter the table never names cannot matter at all.  The memo is
keyed on the clamped counters the table names, which bounds it by the
table: with every threshold at 1 today, at most 2**4 red and 2**5 blue
keys.  The table is read-only package data, so the memo cannot go
stale.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from ..errors import ControllerError
from ..scenario.engine import AgentContext


@lru_cache(maxsize=None)
def _load_tables() -> dict:
    text = resources.files("cyberevo.controllers").joinpath("data/state_classifier.json").read_text()
    return json.loads(text)


def state_priority(side: str) -> tuple[str, ...]:
    tables = _load_tables()
    if side not in ("red", "blue"):
        raise ControllerError(f"no classifier for side {side!r}")
    return tuple(tables[side]["priority"])


def classify_counters(side: str, counters: dict[str, int]) -> str:
    """Apply the truth table to raw counters."""
    tables = _load_tables()
    if side not in ("red", "blue"):
        raise ControllerError(f"no classifier for side {side!r}")
    table = tables[side]
    chosen = None
    for state in table["priority"]:
        thresholds = table["states"][state]
        if all(counters.get(name, 0) >= minimum for name, minimum in thresholds.items()):
            chosen = state
    if chosen is None:
        raise ControllerError(f"no state matched counters {counters} for side {side}")
    return chosen


@lru_cache(maxsize=None)
def _caps(side: str) -> tuple[tuple[str, int], ...]:
    """(counter, largest threshold) for each counter the side's table names."""
    if side not in ("red", "blue"):
        raise ControllerError(f"no classifier for side {side!r}")
    caps: dict[str, int] = {}
    for thresholds in _load_tables()[side]["states"].values():
        for name, minimum in thresholds.items():
            caps[name] = max(caps.get(name, minimum), minimum)
    return tuple(caps.items())


# {side: {clamped counters: state}}, filled by `classify_state`.
_STATES: dict[str, dict[tuple[int, ...], str]] = {"red": {}, "blue": {}}


def classify_state(side: str, context: AgentContext) -> str:
    """Classify an agent's situation into exactly one controller state."""
    caps = _caps(side)
    counters = context.counters()
    key = tuple([min(counters.get(name, 0), cap) for name, cap in caps])
    memo = _STATES[side]
    state = memo.get(key)
    if state is None:
        state = memo[key] = classify_counters(side, counters)
    return state
