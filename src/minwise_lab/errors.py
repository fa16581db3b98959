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
    """An argument is outside what the called routine accepts.

    It is also a ValueError, the type such checks raised before, so
    callers that catch ValueError keep working.
    """


class NotFullRank(MinwiseLabError):
    """A matrix required to have full row rank does not."""


class BadSeedLength(MinwiseLabError):
    """A seed is negative or wider than the declared seed_bits."""


class DomainOverflow(MinwiseLabError):
    """An evaluation point lies outside the family's domain [1, N]."""


class RangeMismatch(MinwiseLabError):
    """Two families combined by a DirectSumFamily have incompatible ranges."""


class WidthError(MinwiseLabError):
    """Extractor output width is negative or not smaller than the source width."""


class WidthMismatch(MinwiseLabError):
    """Composition stages disagree on the running source width."""


class DomainMismatch(MinwiseLabError):
    """Two explicit distributions are not over the same finite set."""


class ParamViolation(MinwiseLabError, ValueError):
    """Construction parameters, plugged components, a config file or its
    values are unreadable or inconsistent; also a ValueError, like
    InvalidArgument."""


class SeedSpaceTooLarge(MinwiseLabError):
    """Exhaustive enumeration requested for a seed space over the
    2^EXHAUSTIVE_SEED_BITS budget."""


class ScanWorkerFailed(RuntimeError):
    """A forked scan worker ended without sending its sum, or sent an
    exception that could not be pickled."""


class EmptyQuery(MinwiseLabError):
    """A min-wise query needs a nonempty Y that is a proper subset of X."""


class RegimeMismatch(MinwiseLabError):
    """|X| contradicts the declared load-lemma regime."""
