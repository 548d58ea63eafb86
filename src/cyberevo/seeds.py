"""Deterministic seed derivation.

Every stochastic component draws from a PCG64 stream built out of an
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

The three streams an episode owns (topology, scenario, controller) are
`ScalarStream`s from `spawn_stream`: they draw one scalar at a time, and
reproduce numpy's ``Generator.random()`` and ``Generator.integers()``
bit for bit from the generator's raw 64-bit words, without numpy's
per-call overhead.  Bounded draws read 32-bit half-words from one
source, ``ScalarStream.next_half``.  A loop that draws over one fixed
span runs Lemire's rejection loop itself on ``next_half``, with the
span's `lemire_threshold` computed once, as the engine's green users do;
topology generation, whose spans are few, takes a draw function from
``ScalarStream.below(span)`` once and calls it without arguments.  A
loop that tests one fixed probability ``p`` computes ``word_cut(p)``
once and compares raw words from ``ScalarStream.next_word`` with it:
``next_word() < word_cut(p)`` is exactly ``random() < p``, and reads
the same word, without the shift and the float multiply.
Variation draws arrays and keeps a numpy Generator from
`spawn_generator`.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterator

import numpy as np

STREAM_TOPOLOGY = 101
STREAM_EPISODE = 202
STREAM_VARIATION = 303
STREAM_CONTROLLER = 404

# Raw words read from the bit generator at a time.
_BLOCK = 256
_UNIT = 2.0**-53
# A half-word's mask, and the number of half-word values.
LOW32 = 0xFFFFFFFF
_SPAN32 = 1 << 32


def _clean(parts: tuple[int, ...]) -> list[int]:
    return [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]


def spawn_generator(*parts: int) -> np.random.Generator:
    """Build a PCG64 Generator keyed on the given seed parts (order matters)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_clean(parts))))


def spawn_stream(*parts: int) -> ScalarStream:
    """The `ScalarStream` of `spawn_generator(*parts)`."""
    return ScalarStream(spawn_generator(*parts))


def derive_seed(*parts: int) -> int:
    """Collapse seed parts into a single 32-bit integer seed."""
    return int(np.random.SeedSequence(_clean(parts)).generate_state(1)[0])


def word_cut(p: float) -> int:
    """The raw word below which ``random()`` falls below ``p``.

    For every 64-bit word ``w``, ``w < word_cut(p)`` holds exactly when
    ``(w >> 11) * 2**-53 < p``, the test ``random() < p`` makes on ``w``.

    Proof.  Let ``k = w >> 11``, so ``w = k * 2**11 + r`` with
    ``0 <= r < 2**11`` and ``0 <= k < 2**53``, and let ``c`` be
    ``ceil(p * 2**53)``.

    * ``k * 2**-53`` and ``p * 2**53`` are exact in binary64.  Scaling
      by a power of two only moves the exponent, and neither product
      leaves the normal range: ``k * 2**-53`` is 0 or at least
      ``2**-53``, and for ``0 <= p <= 1`` the product ``p * 2**53`` is
      0 or at least ``2**-1021``, even for a subnormal ``p``.  So the
      float test ``k * 2**-53 < p`` is the real inequality
      ``k < p * 2**53``.
    * For an integer ``k`` and a real ``x``, ``k < x`` exactly when
      ``k < ceil(x)``: ``x <= ceil(x)`` gives one direction, and
      ``ceil(x) - 1 < x`` the other.  So the test is ``k < c``.
    * ``k < c`` exactly when ``w < c * 2**11``: if ``k <= c - 1`` then
      ``w <= (c - 1) * 2**11 + 2**11 - 1 < c * 2**11``; if ``k >= c``
      then ``w >= c * 2**11``.

    Hence ``w < (c << 11)``.  A ``p`` of 0 or less gives a cut no word
    is below, and a ``p`` of 1 gives ``2**64``, above every word.
    """
    return math.ceil(p * 2.0**53) << 11


def lemire_threshold(span: int) -> int:
    """The cut of Lemire's rejection loop over ``span`` values.

    A draw multiplies a half-word by ``span`` and redraws while the
    product's low 32 bits fall below ``(2**32 - span) % span``; the
    product's high 32 bits are then uniform in ``[0, span)`` (Lemire
    2019, "Fast Random Integer Generation in an Interval").
    """
    return (_SPAN32 - span) % span


def _halves(buffered: int | None, next_word: Callable[[], int]) -> Iterator[int]:
    """PCG64's half-words: the buffered one first, then each word's low
    half and then its high half."""
    if buffered is not None:
        yield buffered
    while True:
        word = next_word()
        yield word & LOW32
        yield word >> 32


class ScalarStream:
    """A PCG64 Generator's scalar ``random()`` and ``integers()``, in Python.

    Each call returns exactly what the same call on the wrapped
    Generator would have returned, in the same order:

    * ``random()`` is ``(w >> 11) * 2**-53`` on the next raw word ``w``;
    * ``integers(low, high)`` is Lemire's bounded draw on 32-bit
      half-words from ``next_half``, redrawing while the product's low
      32 bits fall below `lemire_threshold`.  A span of 1 draws nothing.

    ``next_half()`` returns the next half-word: the one the wrapped
    Generator had buffered (PCG64's ``has_uint32`` and ``uinteger``),
    if any, then the low half of a fresh word, then its high half.
    ``next_word()`` returns the next raw word itself, the word a
    ``random()`` call would have read; compare it with a `word_cut`.
    A word it reads leaves a half-word held by ``next_half`` where it
    was, as ``random()`` leaves PCG64's buffer.  ``below(span)`` returns
    a function that gives ``integers(span)`` draws from the same loop
    and half-words.  Spans up to ``2**32`` are supported.  The stream
    reads the bit generator ahead in blocks, so the wrapped Generator
    must not be used once it is wrapped.
    """

    def __init__(self, generator: np.random.Generator):
        bit_generator = generator.bit_generator
        state = bit_generator.state
        blocks = map(np.ndarray.tolist, map(bit_generator.random_raw, repeat(_BLOCK)))
        self.next_word = chain.from_iterable(blocks).__next__
        buffered = state["uinteger"] if state["has_uint32"] else None
        self.next_half = _halves(buffered, self.next_word).__next__

    def random(self) -> float:
        """A float in [0, 1), as ``Generator.random()``."""
        return (self.next_word() >> 11) * _UNIT

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or [0, low) without ``high``, as ``Generator.integers``."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= _SPAN32:
            raise ValueError(f"integers({low}, {high}): span {span} is not in [1, 2**32]")
        return low + self._bounded(span, lemire_threshold(span))

    def below(self, span: int) -> Callable[[], int]:
        """A function that draws ``integers(span)`` each time it is called.

        It shares this stream's words and half-words, so its draws
        interleave with ``random()`` and ``integers()`` exactly as
        ``integers(span)`` calls would; it only skips their per-call
        argument checks.
        """
        if span == 1:
            return lambda: 0  # a span of 1 draws nothing
        if not 1 < span <= _SPAN32:
            raise ValueError(f"below({span}): span {span} is not in [1, 2**32]")
        return partial(self._bounded, span, lemire_threshold(span))

    def _bounded(self, span: int, threshold: int) -> int:
        """Lemire's rejection loop: an int in [0, span) from half-words."""
        next_half = self.next_half
        while True:
            product = next_half() * span
            if product & LOW32 >= threshold:
                return product >> 32
