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


def test_slices_of_a_read_equal_numpys_rows():
    raw = np.random.Philox(key=5).jumped(2).random_raw(3000)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)
    for bits, values in ((64, raw), (40, raw), (32, halves), (9, halves), (0, halves)):
        want = values[:3000] >> np.uint64((64 if values is raw else 32) - bits)
        for lo, hi in ((0, 1), (3, 8), (255, 257), (1000, 2999), (2999, 3000), (1500, 1500),
                       (0, 3000)):
            stream, rng = Philox(5).jumped(2), _generator(5, 2)
            got = stream.integers(3000, bits, lo, hi)
            assert got.dtype == np.uint64 and np.array_equal(got, want[lo:hi]), (bits, lo, hi)
            # the stream moved past the whole draw, as numpy's generator does
            rng.integers(0, 1 << bits, size=3000, dtype=np.uint64)
            assert np.array_equal(integers(stream, 20, 5),
                                  rng.integers(0, 1 << 20, size=5, dtype=np.uint64))

    def after_reads():
        # an odd narrow read leaves the high half of word 1 waiting, and a
        # words read passes it
        stream, rng = Philox(5).jumped(2), _generator(5, 2)
        for bits, count in ((9, 3), (40, 5)):
            integers(stream, bits, count)
            rng.integers(0, 1 << bits, size=count, dtype=np.uint64)
        return stream, rng

    want = after_reads()[1].integers(0, 1 << 7, size=11, dtype=np.uint64)
    assert want[0] == halves[3] >> 25 and want[1] == halves[14] >> 25
    for lo, hi in ((0, 1), (0, 4), (1, 4), (0, 0), (0, 11)):
        stream, rng = after_reads()
        assert np.array_equal(stream.integers(11, 7, lo, hi), want[lo:hi]), (lo, hi)
        rng.integers(0, 1 << 7, size=11, dtype=np.uint64)
        assert np.array_equal(integers(stream, 7, 3),
                              rng.integers(0, 1 << 7, size=3, dtype=np.uint64))


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


def _recorded_blocks(monkeypatch) -> list[int]:
    """Every block Philox._blocks computes from here on."""
    computed, blocks = [], Philox._blocks

    def recorded(stream, first, stop):
        computed.extend(range(first, stop))
        return blocks(stream, first, stop)

    monkeypatch.setattr(Philox, "_blocks", recorded)
    return computed


def test_a_read_computes_only_its_own_blocks(monkeypatch):
    # choice(16, 6) makes 11 bounded draws, none rejected for this key:
    # 11 halves, which lie in words 0-5, blocks 0 and 1
    computed = _recorded_blocks(monkeypatch)
    stream = Philox(1)
    assert stream.choice(16, 6) == [3, 6, 11, 2, 5, 9]
    assert computed == [0, 1], computed
    # the high half of word 5 waits, and the next 5 halves lie in words
    # 5-7: block 1 is computed once for the waiting half and the rest
    integers(stream, 32, 5)
    assert computed == [0, 1, 1], computed


def test_a_read_of_no_values_computes_no_block(monkeypatch):
    computed = _recorded_blocks(monkeypatch)
    stream = Philox(3)
    integers(stream, 64, 1)
    computed.clear()
    assert len(stream.integers(0, 64)) == 0 and computed == []

    def waiting():
        # the high half of word 0 waits, and the next unread word is 9
        stream = Philox(3)
        integers(stream, 5, 1)
        integers(stream, 64, 8)
        computed.clear()
        return stream

    stream = waiting()
    assert len(stream.integers(0, 32)) == 0 and computed == []
    assert len(stream.integers(7, 32, 0, 0)) == 0 and computed == []
    # row 0 alone is the waiting half, which only its own block holds
    waiting().integers(7, 32, 0, 1)
    assert computed == [0]


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
