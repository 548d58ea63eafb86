"""Counter-threshold state classification for matrix controllers.

The truth table lives in ``data/state_classifier.json`` so the mapping
from counters to states stays inspectable and editable.  The counters
come from the agent's decision context, not from its observation.  A
state matches when every listed counter meets its threshold; the last
matching state in priority order wins, which makes later, more severe
states dominate earlier ones.
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


def classify_state(side: str, context: AgentContext) -> str:
    """Classify an agent's situation into exactly one controller state."""
    return classify_counters(side, context.counters())
