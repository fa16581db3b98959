"""minwise_lab.philox against numpy's random package, draw for draw.

The program's Philox4x64-10 stream and its two draws must give the bits
numpy gives for ``Philox(key).jumped(jump)``, ``integers(0, 2**bits,
count, dtype=np.uint64)`` and ``choice(pop, size, replace=False)``: the
golden CSV, the output pins and every Monte-Carlo answer were captured
with numpy's.
"""

import numpy as np
import pytest

from minwise_lab.errors import InvalidArgument
from minwise_lab.philox import Philox
from reference_philox import integers

KEYS = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1]


def _generator(key: int, jump: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key).jumped(jump))


@pytest.mark.parametrize("jump", [0, 1, 3])
@pytest.mark.parametrize("key", KEYS)
def test_raw_words_equal_numpys(key, jump):
    sizes = (1, 6, 63, 64, 65, 2049, 8191, 5)
    want = np.random.Philox(key=key).jumped(jump).random_raw(sum(sizes))
    stream = Philox(key).jumped(jump)
    # 64-bit integers are the raw words.  Each read computes its own
    # blocks, in passes of 2048: reads of these lengths, within and across
    # a block and a pass, give one long read's words
    got = np.concatenate([integers(stream, 64, n) for n in sizes])
    assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_reads_at_an_offset_equal_numpys_words_there():
    raw = np.random.Philox(key=5).jumped(2).random_raw(3000)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)
    stream = Philox(5).jumped(2)
    for first, count in ((0, 1), (3, 5), (255, 2), (1000, 1999), (2999, 0)):
        for bits, values in ((64, raw), (40, raw), (32, halves), (9, halves), (0, halves)):
            want = values[first:first + count] >> np.uint64(64 - bits if values is raw
                                                              else 32 - bits)
            got = stream.integers_at(first, count, bits)
            assert got.dtype == np.uint64 and np.array_equal(got, want)
    # the stream did not move, and offsets count from its next word
    assert np.array_equal(integers(stream, 64, 4), raw[:4])
    assert np.array_equal(stream.integers_at(1, 3, 64), raw[5:8])
    assert np.array_equal(stream.integers_at(1, 3, 32), halves[9:12])
    integers(stream, 5, 1)
    with pytest.raises(InvalidArgument, match="waiting half"):
        stream.integers_at(0, 1, 5)


def test_jumped_reads_on_from_the_next_block_not_computed():
    for read in (0, 1, 4, 6):
        numpy_bits = np.random.Philox(key=9)
        numpy_bits.random_raw(read)
        stream = Philox(9)
        integers(stream, 64, read)
        assert np.array_equal(integers(stream.jumped(2), 64, 9),
                              numpy_bits.jumped(2).random_raw(9)), read


def test_integers_equal_numpys_at_every_width():
    # every width at odd counts, a width of at most 32 bits always next to
    # one of more, so that the half a narrow draw leaves waiting is read by
    # the next narrow draw across the wide draw between them
    rng, stream = _generator(77), Philox(77)
    for bits in range(65):
        for width, count in ((bits, 3), (64 - bits, 5), (bits // 2, 1)):
            want = rng.integers(0, 1 << width, size=count, dtype=np.uint64)
            got = integers(stream, width, count)
            assert got.dtype == np.uint64 and np.array_equal(got, want), (bits, width)
    assert np.array_equal(integers(stream, 17, 70001),
                          rng.integers(0, 1 << 17, size=70001, dtype=np.uint64))


@pytest.mark.parametrize("pop, size", [
    (4, 3), (4, 4), (1, 1), (5, 0),
    (4096, 2048), (10000, 9000), (10001, 200), (10001, 201),
    (16384, 1024), (16384, 100), (16384, 16384),
    # bounds near 2^31, where about half of all bounded draws are rejected
    ((1 << 31) + 64, 64), (1 << 32, 40),
])
def test_choice_equals_numpys_and_leaves_the_stream_where_numpy_does(pop, size):
    # numpy shuffles the tail of arange(pop) when pop > 10000 and size >
    # pop // 50, and uses Floyd's algorithm otherwise: both sides are here
    rng, stream = _generator(pop + size), Philox(pop + size)
    for _ in range(2):
        assert stream.choice(pop, size) == rng.choice(pop, size=size, replace=False).tolist()
        assert np.array_equal(integers(stream, 20, 11),
                              rng.integers(0, 1 << 20, size=11, dtype=np.uint64))
        assert np.array_equal(integers(stream, 40, 3),
                              rng.integers(0, 1 << 40, size=3, dtype=np.uint64))


def test_a_read_computes_only_its_own_blocks(monkeypatch):
    # choice(16, 6) makes 11 bounded draws, none rejected for this key:
    # 11 halves, which lie in words 0-5, blocks 0 and 1
    computed, blocks = [], Philox._blocks

    def recorded(stream, first, stop):
        computed.append((first, stop))
        return blocks(stream, first, stop)

    monkeypatch.setattr(Philox, "_blocks", recorded)
    assert Philox(1).choice(16, 6) == [3, 6, 11, 2, 5, 9]
    assert sum(stop - first for first, stop in computed) == 2, computed


@pytest.mark.parametrize("key", [-1, 1 << 128, 1 << 130])
def test_keys_outside_128_bits_are_refused(key):
    with pytest.raises(InvalidArgument, match="outside"):
        Philox(key)


def test_draw_arguments_are_checked():
    stream = Philox(0)
    for pop, size in ((3, 4), (4, -1), ((1 << 32) + 1, 1)):
        with pytest.raises(InvalidArgument, match="cannot choose"):
            stream.choice(pop, size)
    for bits in (-1, 65):
        with pytest.raises(InvalidArgument, match="bits"):
            integers(stream, bits, 1)
    # a negative count is refused before the stream moves, so the words
    # read next are the words an untouched stream reads
    integers(stream, 40, 3)
    for bits in (0, 5, 40):
        with pytest.raises(InvalidArgument, match="cannot draw -1 integers"):
            integers(stream, bits, -1)
    fresh = Philox(0)
    integers(fresh, 40, 3)
    assert np.array_equal(integers(stream, 64, 4), integers(fresh, 64, 4))
    assert np.array_equal(integers(stream, 5, 3), integers(fresh, 5, 3))
