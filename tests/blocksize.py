"""The scans' block and slice sizes, set for the length of a ``with`` block.

Every exhaustive scan reads ``kwise.SCAN_CHUNK_BITS`` when it starts,
and every Monte-Carlo scan ``kwise.MC_COUNT_BITS``; forked scan workers
inherit both.  A Monte-Carlo block is one count slice of 2^MC_COUNT_BITS
rows of a draw chunk of 2^MC_DRAW_BITS rows, drawn where it is counted,
whatever the exhaustive block size is, so Monte-Carlo tests that set
either size check that it does not matter.  Hypothesis ``@given`` tests
cannot use the function-scoped ``monkeypatch`` fixture, so block-split
tests set the constants here.
"""

from __future__ import annotations

import contextlib

from minwise_lab import kwise


@contextlib.contextmanager
def _setting(name: str, bits: int):
    saved = getattr(kwise, name)
    setattr(kwise, name, bits)
    try:
        yield
    finally:
        setattr(kwise, name, saved)


def scan_chunk_bits(bits: int):
    """Exhaustive scans started inside the block count in blocks of <= 2^bits seeds."""
    return _setting("SCAN_CHUNK_BITS", bits)


def mc_count_bits(bits: int):
    """Monte-Carlo scans started inside the block draw and count each
    draw chunk in slices of <= 2^bits rows, for bits <= MC_DRAW_BITS."""
    return _setting("MC_COUNT_BITS", bits)
