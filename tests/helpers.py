"""Test-only controllers."""

from __future__ import annotations

from cyberevo.controllers.base import RANDOM_TARGET


class FixedActionController:
    """Repeats one action with one heuristic."""

    def __init__(self, side: str, action: str, heuristic: str = RANDOM_TARGET):
        self.side = side
        self.action = action
        self.heuristic = heuristic

    def decide(self, observation, context, rng) -> tuple[str, str]:
        return self.action, self.heuristic
