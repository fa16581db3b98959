"""A time limit on a block of test code."""

from __future__ import annotations

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a
    scan that waits on a lost worker, or a count that should be quick,
    fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    saved = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)
