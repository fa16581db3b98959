"""numpy's ``integers`` read in turn off a ``minwise_lab.philox.Philox``.

The program draws its Monte-Carlo seeds as slices of rows of one draw
(``Philox.integers`` with ``lo`` and ``hi``); this is the whole-draw
form those slices are tested against, reading the stream as numpy's
``Generator`` does, draw after draw, each from the stream's next unread
word or waiting half, with argument checks of its own.
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
    return stream.integers(count, bits)
