"""Philox4x64-10, the counter-based stream behind every draw of the program.

The stream is bit-equal to numpy's ``Philox(key).jumped(jump)``, and its
two draws to the ``Generator`` methods the program once called on it:
``integers(0, 2**bits, count, dtype=np.uint64)``, of which any slice
of rows can be read, and ``choice(pop, size, replace=False)``, as numpy
2.4 computes them.  numpy keeps its bit generators' streams stable across
versions but not its ``Generator`` methods (NEP 19), and importing
numpy's random package costs a run about 6 MB of peak memory, so the
program computes the stream and both draws here, from numpy's core alone.

A block is 4 words computed from a 256-bit counter and the 128-bit key
by 10 rounds.  Block b of the stream is computed at counter
``b + 1 + (jump << 128)``: numpy adds 1 to the counter before each
block, and a jump adds 1 to counter word 2.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument

_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
# A block's rounds multiply its counter words 0 and 2 and xor words 1 and
# 3, so a pass keeps those pairs as the two rows of (2, blocks) arrays.
# These are the rows' multipliers and key increments.
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# Blocks computed by one pass of the vectorised rounds: each of the
# pass's (2, blocks) uint64 temporaries is 32 KiB, so they stay in cache
# and a large read does not hold a round's worth of full-size arrays at
# once.  Passes of 256 blocks added 11 ms to a Monte-Carlo measure.
_SLICE_BLOCKS = 2048

# Bounded draws tried at once; a rejection (probability below
# bound / 2^32) ends a window early and the next one starts at it.
_WINDOW = 2048

# numpy's choice without replacement shuffles the tail of arange(pop)
# when pop exceeds this and the sample exceeds pop // _TAIL_SHARE; below
# that it uses Floyd's algorithm and shuffles the sample.
_TAIL_POP, _TAIL_SHARE = 10000, 50


def _mulhilo(x: np.ndarray, mul: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of the 128-bit products of ``x`` and the
    multipliers ``mul`` = (m, m's low 32 bits, m's high 32 bits), each of
    x's shape.  The high word is put together from 32-bit limbs; the low
    word is numpy's wrapping *."""
    m, m_lo, m_hi = mul
    x_lo, x_hi = x & _M32, x >> 32
    t = x_hi * m_lo
    t += (x_lo * m_lo) >> 32
    u = x_lo * m_hi
    u += t & _M32
    hi = x_hi * m_hi
    hi += t >> 32
    hi += u >> 32
    return hi, x * m


def _rows(count: int, top: int, bottom: int) -> np.ndarray:
    """A (2, count) uint64 array of two constant rows.  numpy is about
    twice as slow on a (2, 1) column broadcast against (2, count)."""
    out = np.empty((2, count), np.uint64)
    out[0], out[1] = top, bottom
    return out


class Philox:
    """The Philox4x64-10 stream of a 128-bit ``key``, jumped ``jump``
    times, read as numpy reads it: 64-bit words in block order, and
    32-bit halves of those words, low half first.  A word whose low
    half was read keeps its high half for the next 32-bit read, while
    64-bit reads take whole words and leave that half waiting.  The
    stream holds positions, not values, so a read computes only the
    blocks of the values it returns and steps past the rest."""

    def __init__(self, key: int, jump: int = 0):
        if not 0 <= key < 1 << 128:
            raise InvalidArgument(f"Philox key {key} outside [0, 2^128)")
        if not 0 <= jump < 1 << 128:
            raise InvalidArgument(f"Philox jump {jump} outside [0, 2^128)")
        self._key, self._jump = key, jump
        self._next = 0       # index of the next unread word
        self._half = None    # index of the word whose high half waits

    def jumped(self, jumps: int) -> "Philox":
        """numpy's ``jumped``: the same key, ``jumps`` more jumps, reading
        from the first block none of whose words this stream has read; a
        waiting half is dropped."""
        out = Philox(self._key, self._jump + jumps)
        out._next = -(-self._next // 4) * 4
        return out

    def _blocks(self, first: int, stop: int) -> np.ndarray:
        """The words of blocks [first, stop), in stream order."""
        out = np.empty((stop - first, 4), np.uint64)
        for lo in range(first, stop, _SLICE_BLOCKS):
            n = min(_SLICE_BLOCKS, stop - lo)
            mul = _rows(n, *_MUL)
            mul = mul, mul & _M32, mul >> 32
            key, bump = _rows(n, self._key & _M64, self._key >> 64), _rows(n, *_BUMP)
            x, xor = _rows(n, 0, self._jump & _M64), _rows(n, 0, self._jump >> 64)
            x[0] = np.arange(lo + 1, lo + n + 1, dtype=np.uint64)
            for r in range(10):
                if r:
                    key += bump
                high, low = _mulhilo(x, mul)
                x, xor = high[::-1] ^ xor, low[::-1]
                x ^= key
            out[lo - first:lo - first + n] = np.stack([x[0], xor[0], x[1], xor[1]], axis=1)
        return out.reshape(-1)

    def _places(self, first: int, count: int, size: int) -> np.ndarray:
        """Places [first, first + count) of the stream as uint64: its
        32-bit halves when ``size`` is 32, else its words.  Only the
        blocks they lie in are computed, none when ``count`` is 0."""
        per = 256 // size  # places in a block
        stop = -(-(first + count) // per) if count else first // per
        words = self._blocks(first // per, stop)
        if size == 32:
            halves = np.empty(2 * len(words), np.uint64)
            halves[0::2] = words & _M32
            halves[1::2] = words >> 32
            words = halves
        return words[first % per:first % per + count]

    def integers(self, count: int, bits: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows [lo, hi) (all when ``hi`` is None) of numpy's
        ``integers(0, 2**bits, count, dtype=np.uint64)`` read from here,
        after which the stream has moved past all ``count`` rows.  A row
        is the top ``bits`` of a word when ``bits`` > 32, else of a half:
        the waiting half for row 0 when one waits, then the halves of the
        next unread word on.  0 bits draw nothing."""
        hi = count if hi is None else hi
        if not 0 <= lo <= hi <= count:
            raise InvalidArgument(f"rows [{lo}, {hi}) of a draw of {count}")
        if not bits:
            return np.zeros(hi - lo, np.uint64)
        if bits > 32:
            values = self._places(self._next + lo, hi - lo, 64)
            self._next += count
        else:
            waiting = self._half is not None
            first = 2 * self._next - waiting  # row r reads half first + r, but
            # row 0 reads the waiting half apart when a words draw passed it
            apart = int(waiting and self._half < self._next - 1)
            start = max(lo, apart)
            values = self._places(first + start, max(hi, apart) - start, 32)
            if apart and lo == 0 < hi:
                values = np.concatenate([self._places(2 * self._half + 1, 1, 32), values])
            if count:
                end = first + count  # one past the last half read
                self._next, self._half = -(-end // 2), end // 2 if end % 2 else None
        values >>= 64 - bits if bits > 32 else 32 - bits
        return values

    def _below(self, bounds: np.ndarray) -> list[int]:
        """numpy's bounded draw on [0, b) for each b of ``bounds`` in turn
        (2 <= b <= 2^32), by Lemire's method: the high half of u * b for
        the next half u, drawn again while the low half of u * b is below
        2^32 mod b.  Draws are tried a window at a time; a rejected one
        ends its window, and the halves read past it start the next."""
        out = []
        spare = np.empty(0, np.uint64)
        while len(out) < len(bounds):
            b = bounds[len(out):len(out) + _WINDOW]
            u = np.concatenate([spare, self.integers(len(b) - len(spare), 32)])
            m = u * b
            low = m & _M32
            near = np.flatnonzero(low < b)
            bad = near[low[near] < (1 << 32) % b[near]]
            took = int(bad[0]) if len(bad) else len(b)
            out += (m[:took] >> 32).tolist()
            spare = u[took + 1:]
        return out

    def choice(self, pop: int, size: int) -> list[int]:
        """numpy's ``choice(pop, size, replace=False)``: ``size`` distinct
        indices of [0, pop) in random order, for pop <= 2^32."""
        if not 0 <= size <= pop <= 1 << 32:
            raise InvalidArgument(f"cannot choose {size} of {pop} without replacement")
        if pop > _TAIL_POP and size > pop // _TAIL_SHARE:
            # swap position i of arange(pop) with a draw on [0, i], for i
            # from pop - 1 down; only the moved positions are stored
            first = max(pop - size, 1)
            draws = self._below(np.arange(pop, first, -1, dtype=np.uint64))
            moved: dict[int, int] = {}
            for i, j in zip(range(pop - 1, first - 1, -1), draws):
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(pop - size, pop)]
        # Floyd's algorithm draws on [0, j] for j from pop - size up (j = 0
        # draws nothing) and takes j when the draw is taken already; a
        # Fisher-Yates pass then shuffles the picks
        low = pop - size
        draws = self._below(np.concatenate([
            np.arange(max(low, 1) + 1, pop + 1, dtype=np.uint64),
            np.arange(size, 1, -1, dtype=np.uint64)]))
        if low == 0:
            draws.insert(0, 0)
        picks, taken = [], set()
        for j, v in zip(range(low, pop), draws):
            if v in taken:
                v = j
            taken.add(v)
            picks.append(v)
        for i, j in zip(range(size - 1, 0, -1), draws[size:]):
            picks[i], picks[j] = picks[j], picks[i]
        return picks
