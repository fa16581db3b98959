"""Exception types shared across minwise_lab modules.

Every error raised on a violated precondition derives from
:class:`MinwiseLabError` so callers (and the CLI) can distinguish contract
violations from programming bugs.  :class:`ScanWorkerFailed` is not one:
a scan worker that dies or cannot send back what stopped it is a failure
of the run, not of its arguments, so it is a RuntimeError and the CLI
lets it propagate with its traceback instead of exiting 2.
"""

from __future__ import annotations

# log2 of the largest seed space an exhaustive scan enumerates; past it a
# scan raises SeedSpaceTooLarge
EXHAUSTIVE_SEED_BITS = 24


class MinwiseLabError(Exception):
    """Base class for all library-level errors."""


class InvalidArgument(MinwiseLabError, ValueError):
    """An argument, a parameter set, a config file or one of its values is
    outside what the called routine accepts; the message names the check.

    It is also a ValueError, so callers that catch ValueError catch it.
    """


class SeedSpaceTooLarge(MinwiseLabError):
    """Exhaustive enumeration requested for a seed space over the
    2^EXHAUSTIVE_SEED_BITS budget."""


class ScanWorkerFailed(RuntimeError):
    """A forked scan worker ended without sending its sum, or sent an
    exception that could not be pickled."""
