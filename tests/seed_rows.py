"""Seed blocks as integers and back, written apart from the library.

A seed block is a ``range`` of seeds, packed 1-D uint64 or a 2-D
(count, words) array of word columns, low words first.  These helpers
turn any form into Python integer seeds for scalar ``eval``, and
integers into word rows, with no use of the library's own converter, so
that tests can check it.
"""

from __future__ import annotations

import numpy as np


def seed_ints(seeds: np.ndarray, widths) -> list[int]:
    """The integer seed of every row of a range, a packed or a word block."""
    if isinstance(seeds, range) or seeds.ndim == 1:
        return [int(s) for s in seeds]
    assert seeds.shape[1] == len(widths)
    ints = []
    for row in seeds.tolist():
        seed, offset = 0, 0
        for word, width in zip(row, widths):
            assert 0 <= word < 1 << width
            seed |= word << offset
            offset += width
        ints.append(seed)
    return ints


def split_words(values, widths) -> np.ndarray:
    """(count, words) uint64 word rows of integer seeds, low words first."""
    rows = []
    for value in map(int, values):
        row = []
        for width in widths:
            row.append(value & ((1 << width) - 1))
            value >>= width
        assert value == 0
        rows.append(row)
    return np.array(rows, dtype=np.uint64).reshape(len(rows), len(widths))
