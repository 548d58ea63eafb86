"""Seed derivation: deterministic, order-sensitive, masked to 64 bits.

The scalar streams must reproduce numpy's Generator draw for draw; a
mismatch names the first draw that differs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberevo.evolution import episode_seeds
from cyberevo.seeds import (
    STREAM_CONTROLLER,
    STREAM_EPISODE,
    STREAM_TOPOLOGY,
    STREAM_VARIATION,
    ScalarStream,
    derive_seed,
    spawn_generator,
    spawn_stream,
    word_cut,
)


def test_stream_constants_are_distinct():
    streams = {STREAM_TOPOLOGY, STREAM_EPISODE, STREAM_VARIATION, STREAM_CONTROLLER}
    assert len(streams) == 4


def test_derive_seed_is_deterministic():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)


def test_derive_seed_depends_on_order_and_value():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(5, 7) != derive_seed(5, 7, 7)


def test_derive_seed_fits_32_bits():
    for parts in [(0,), (1, 2, 3), (2**63, 7)]:
        seed = derive_seed(*parts)
        assert 0 <= seed < 2**32


def test_negative_parts_are_masked_to_64_bits():
    assert derive_seed(-1) == derive_seed(0xFFFFFFFFFFFFFFFF)


def test_spawn_generator_reproduces_streams():
    a = spawn_generator(42, STREAM_EPISODE, 3)
    b = spawn_generator(42, STREAM_EPISODE, 3)
    assert np.array_equal(a.random(16), b.random(16))


def test_spawn_generator_streams_differ_by_parts():
    a = spawn_generator(42, STREAM_EPISODE, 3)
    b = spawn_generator(42, STREAM_EPISODE, 4)
    assert not np.array_equal(a.random(16), b.random(16))


def test_episode_seeds_shape_and_determinism():
    seeds = episode_seeds(1000, trial=2, iteration=5, i=3, j=1, repetitions=4)
    assert len(seeds) == 4
    assert seeds == episode_seeds(1000, 2, 5, 3, 1, 4)
    assert len(set(seeds)) == 4  # repetitions draw distinct episodes


def test_episode_seeds_differ_across_pairings():
    a = episode_seeds(1000, 0, 0, 0, 0, 2)
    b = episode_seeds(1000, 0, 0, 1, 0, 2)
    c = episode_seeds(1000, 0, 0, 0, 1, 2)
    d = episode_seeds(1000, 0, 1, 0, 0, 2)
    e = episode_seeds(1001, 0, 0, 0, 0, 2)
    assert len({tuple(a), tuple(b), tuple(c), tuple(d), tuple(e)}) == 5


# ---------------------------------------------------------------------------
# ScalarStream against numpy's Generator

EDGE_SPANS = (1, 2, 3, 180, 2**31 + 5, 2**32 - 1, 2**32)

spans = st.one_of(st.sampled_from(EDGE_SPANS), st.integers(1, 2**32))
draws = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), spans),
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), spans).map(
        lambda d: (d[0], d[1], d[1] + d[2])
    ),
)


def assert_same_draws(generator, stream, sequence):
    """Replay ``sequence`` on both; fail at the first draw that differs."""
    for index, (method, *args) in enumerate(sequence):
        expected = getattr(generator, method)(*args)
        got = getattr(stream, method)(*args)
        call = f"{method}({', '.join(map(str, args))})"
        assert got == expected and type(got) is (int if method == "integers" else float), (
            f"draw {index}, {call}: numpy gave {expected!r}, the stream gave {got!r}"
        )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    before=st.lists(draws, max_size=3),
    sequence=st.lists(draws, max_size=700),
)
def test_stream_matches_numpy_draw_for_draw(seed, before, sequence):
    """``before`` runs on both Generators first, so the wrapped one may
    hold a buffered half-word."""
    generator, wrapped = spawn_generator(seed, 9), spawn_generator(seed, 9)
    for method, *args in before:
        getattr(generator, method)(*args)
        getattr(wrapped, method)(*args)
    assert_same_draws(generator, ScalarStream(wrapped), sequence)


def test_stream_matches_numpy_over_many_blocks_at_every_edge_span():
    sequence = [("random",)] * 300
    for span in EDGE_SPANS:
        sequence += [("integers", span), ("random",), ("integers", -7, span - 7)] * 100
    assert_same_draws(spawn_generator(3, 1), spawn_stream(3, 1), sequence)


def test_stream_starts_from_a_half_word_already_buffered():
    generator, wrapped = spawn_generator(5, 2), spawn_generator(5, 2)
    for g in (generator, wrapped):
        g.random()
        g.integers(180)  # uses the low half of a word, buffers its high half
    assert wrapped.bit_generator.state["has_uint32"] == 1
    # A span of 2**32 returns the buffered half-word itself.
    sequence = [("random",), ("integers", 2**32)] + [("integers", 3), ("random",)] * 80
    assert_same_draws(generator, ScalarStream(wrapped), sequence)


@pytest.mark.parametrize("args", [(0,), (5, 5), (5, 3), (0, 2**32 + 1), (2**32 + 1,)])
def test_stream_rejects_empty_or_too_wide_ranges(args):
    stream = spawn_stream(1)
    with pytest.raises(ValueError):
        stream.integers(*args)
    assert_same_draws(spawn_generator(1), stream, [("random",), ("integers", 180)])


# ---------------------------------------------------------------------------
# ScalarStream.below: the engine's fixed-span draw function

BELOW_SPANS = (2, 3, 180, 2**31 + 5, 2**32)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    span=st.sampled_from(BELOW_SPANS),
    before=st.lists(draws, max_size=3),
    built_after=st.lists(draws, max_size=3),
    sequence=st.lists(st.one_of(st.just(("below",)), draws), max_size=500),
)
def test_below_matches_numpy_integers_draw_for_draw(seed, span, before, built_after, sequence):
    """``before`` runs on both Generators and ``built_after`` on the
    stream before ``below`` is built, so either may leave a buffered
    half-word; ``("below",)`` draws compare with ``integers(span)``."""
    generator, wrapped = spawn_generator(seed, 9), spawn_generator(seed, 9)
    for method, *args in before:
        getattr(generator, method)(*args)
        getattr(wrapped, method)(*args)
    stream = ScalarStream(wrapped)
    assert_same_draws(generator, stream, built_after)
    draw = stream.below(span)
    for index, (method, *args) in enumerate(sequence):
        if method == "below":
            expected, got = generator.integers(span), draw()
        else:
            expected, got = getattr(generator, method)(*args), getattr(stream, method)(*args)
        call = f"{method}({', '.join(map(str, args or [span]))})"
        assert got == expected and type(got) is (float if method == "random" else int), (
            f"draw {index}, {call}: numpy gave {expected!r}, the stream gave {got!r}"
        )


def test_below_starts_from_a_half_word_buffered_when_it_is_built():
    generator, stream = spawn_generator(6, 3), spawn_stream(6, 3)
    assert generator.integers(180) == stream.integers(180)  # buffers a high half
    assert generator.bit_generator.state["has_uint32"] == 1
    draw = stream.below(3)  # its first draw must read the buffered half, as numpy's does
    expected = [generator.integers(3) for _ in range(50)]
    assert [draw() for _ in range(50)] == expected
    assert_same_draws(generator, stream, [("random",), ("integers", 180)])


def test_below_a_span_of_one_draws_nothing_and_bad_spans_are_rejected():
    generator, stream = spawn_generator(8), spawn_stream(8)
    assert [stream.below(1)() for _ in range(5)] == [0] * 5
    for span in (0, -3, 2**32 + 1):
        with pytest.raises(ValueError):
            stream.below(span)
    assert_same_draws(generator, stream, [("integers", 180), ("random",), ("integers", 3)])


# ---------------------------------------------------------------------------
# word_cut and ScalarStream.next_word: probability tests on raw words

CUT_PROBABILITIES = (0.0, 2.0**-60, 0.02, 0.25, 1 / 3, 0.5, np.nextafter(1.0, 0.0), 1.0)


@pytest.mark.parametrize("p", CUT_PROBABILITIES)
def test_word_cut_agrees_with_random_below_p(p):
    """``w < word_cut(p)`` is ``random() < p`` on the same word: at the
    cut, on either side of it, and on 10**5 seeded words."""
    p = float(p)
    cut = word_cut(p)
    seeded = spawn_generator(18, int(p * 1000)).bit_generator.random_raw(10**5).tolist()
    words = [w for w in (cut - 1, cut, cut + 1) if 0 <= w < 2**64] + seeded
    for w in words:
        assert (w < cut) == ((w >> 11) * 2.0**-53 < p), (p, w)


def test_word_cut_edges():
    assert word_cut(0.0) == 0
    assert word_cut(1.0) == 2**64
    assert word_cut(2.0**-60) == 1 << 11  # only the words of random() == 0
    assert word_cut(0.5) == 1 << 63


@pytest.mark.parametrize("buffered", [False, True])
def test_next_word_is_the_word_random_reads(buffered):
    """A stream that reads ``next_word`` where another calls ``random()``
    sees the same later ``random()`` and ``integers()`` draws, and the
    buffered half-word stays where it was."""
    reading, calling = spawn_stream(21, 4), spawn_stream(21, 4)
    if buffered:
        assert reading.integers(180) == calling.integers(180)  # buffers a high half
    later = [("random",), ("integers", 3), ("integers", 180), ("random",), ("integers", 2**32)]
    for _ in range(300):
        word = reading.next_word()
        assert (word >> 11) * 2.0**-53 == calling.random()
        for method, *args in later:
            assert getattr(reading, method)(*args) == getattr(calling, method)(*args)
