"""numpy's ``integers`` read in turn off a ``minwise_lab.philox.Philox``.

The program draws its Monte-Carlo seeds at computed offsets of the stream
(``Philox.integers_at``); this is the sequential form those offsets are
tested against, reading the stream as numpy's ``Generator`` does, draw
after draw, each from the stream's next unread word or waiting half.
"""

from __future__ import annotations

import numpy as np

from minwise_lab.errors import InvalidArgument
from minwise_lab.philox import Philox


def integers(stream: Philox, bits: int, count: int) -> np.ndarray:
    """numpy's ``integers(0, 2**bits, count, dtype=np.uint64)``: each
    value is the top ``bits`` of a half when ``bits`` <= 32, else of a
    word; 0 bits draw nothing.  A count below 0 is refused before the
    stream moves."""
    if not 0 <= bits <= 64:
        raise InvalidArgument(f"{bits}-bit integers: bits must lie in [0, 64]")
    if count < 0:
        raise InvalidArgument(f"cannot draw {count} integers")
    if bits == 0:
        return np.zeros(count, np.uint64)
    if bits <= 32:
        return stream._halves(count) >> (32 - bits)
    return stream._read(count) >> (64 - bits)
