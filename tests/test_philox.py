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

KEYS = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1]


def _generator(key: int, jump: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key).jumped(jump))


@pytest.mark.parametrize("jump", [0, 1, 3])
@pytest.mark.parametrize("key", KEYS)
def test_raw_words_equal_numpys(key, jump):
    want = np.random.Philox(key=key).jumped(jump).random_raw(8203)
    stream = Philox(key).jumped(jump)
    # 64-bit integers are the raw words; reads of odd lengths, one across
    # a block and one across a pass of 2048 blocks, give one long read's
    got = np.concatenate([stream.integers(64, n) for n in (1, 6, 8191, 5)])
    assert got.dtype == np.uint64 and np.array_equal(got, want)


def test_jumped_reads_on_from_the_next_block_not_computed():
    for read in (0, 1, 4, 6):
        numpy_bits = np.random.Philox(key=9)
        numpy_bits.random_raw(read)
        stream = Philox(9)
        stream.integers(64, read)
        assert np.array_equal(stream.jumped(2).integers(64, 9),
                              numpy_bits.jumped(2).random_raw(9)), read


def test_integers_equal_numpys_at_every_width():
    # every width at odd counts, a width of at most 32 bits always next to
    # one of more, so that the half a narrow draw leaves waiting is read by
    # the next narrow draw across the wide draw between them
    rng, stream = _generator(77), Philox(77)
    for bits in range(65):
        for width, count in ((bits, 3), (64 - bits, 5), (bits // 2, 1)):
            want = rng.integers(0, 1 << width, size=count, dtype=np.uint64)
            got = stream.integers(width, count)
            assert got.dtype == np.uint64 and np.array_equal(got, want), (bits, width)
    assert np.array_equal(stream.integers(17, 70001),
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
        assert np.array_equal(stream.integers(20, 11),
                              rng.integers(0, 1 << 20, size=11, dtype=np.uint64))
        assert np.array_equal(stream.integers(40, 3),
                              rng.integers(0, 1 << 40, size=3, dtype=np.uint64))


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
            stream.integers(bits, 1)
