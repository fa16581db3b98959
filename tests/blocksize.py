"""The exhaustive scans' block size, set for the length of a ``with`` block.

Every exhaustive scan reads ``kwise.SCAN_CHUNK_BITS`` when it starts,
and forked scan workers inherit it.  A Monte-Carlo block is one draw
chunk of 2^MC_DRAW_BITS rows whatever this size is, so Monte-Carlo tests
that set it check that it does not matter.  Hypothesis ``@given`` tests
cannot use the function-scoped ``monkeypatch`` fixture, so block-split
tests set the constant here.
"""

from __future__ import annotations

import contextlib

from minwise_lab import kwise


@contextlib.contextmanager
def scan_chunk_bits(bits: int):
    """Exhaustive scans started inside the block count in blocks of <= 2^bits seeds."""
    saved, kwise.SCAN_CHUNK_BITS = kwise.SCAN_CHUNK_BITS, bits
    try:
        yield
    finally:
        kwise.SCAN_CHUNK_BITS = saved
