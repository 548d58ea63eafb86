"""Deterministic seed derivation.

Every stochastic component draws from a numpy Generator built out of an
explicit tuple of integer seed parts.  The same parts always yield the
same stream, independent of platform, process or scheduling, which is
what makes traces byte-reproducible.

Conventions used across the package:

* episode:    (master, trial, iteration, i, j, repetition, STREAM_EPISODE)
* topology:   (episode seed, STREAM_TOPOLOGY), a fresh network per episode
* scenario:   (episode seed), the engine's own draws (greens, outcomes)
* controller: (episode seed, STREAM_CONTROLLER)
* variation:  (master, STREAM_VARIATION, trial), plus the side index
  (0 red, 1 blue) under coevolution

where ``i``/``j`` are individual indices (``j`` is 0 for one-sided runs).
"""

from __future__ import annotations

import numpy as np

STREAM_TOPOLOGY = 101
STREAM_EPISODE = 202
STREAM_VARIATION = 303
STREAM_CONTROLLER = 404


def _clean(parts: tuple[int, ...]) -> list[int]:
    return [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]


def spawn_generator(*parts: int) -> np.random.Generator:
    """Build a PCG64 Generator keyed on the given seed parts (order matters)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_clean(parts))))


def derive_seed(*parts: int) -> int:
    """Collapse seed parts into a single 32-bit integer seed."""
    return int(np.random.SeedSequence(_clean(parts)).generate_state(1)[0])
