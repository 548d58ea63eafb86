"""Test-only controllers, and the environment for child interpreters."""

from __future__ import annotations

import os
from pathlib import Path

import cyberevo
from cyberevo.controllers.base import RANDOM_TARGET


def package_env() -> dict[str, str]:
    """This process's environment with the imported package's root first
    on ``PYTHONPATH``.

    A child that runs elsewhere would resolve a relative entry such as
    ``src`` to nothing, and an installed copy could stand in for the
    package under test.
    """
    package_root = str(Path(cyberevo.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
    return env


class FixedActionController:
    """Repeats one action with one heuristic."""

    def __init__(self, side: str, action: str, heuristic: str = RANDOM_TARGET):
        self.side = side
        self.action = action
        self.heuristic = heuristic

    def decide(self, observation, context, rng) -> tuple[str, str]:
        return self.action, self.heuristic
