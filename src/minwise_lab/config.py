"""The one checked reader of JSON configs, writer of reports and verdict rule.

A Config node wraps one JSON object.  Its accessors ``int``, ``number``,
``string``, ``ints`` (an integer list), ``obj`` and ``objects`` (a nested
object, a list of them) each take a default and a range, and name the
key's path in their errors.  No default makes the key required; a None
default reads an absent key or a null as None.  ``done()`` refuses every
key that no accessor asked for, in the node or in an object read from it.

Errors are InvalidArgument, also a ValueError, led by the kind of fault:
KeyError (a missing or unknown key), TypeError (the key's value has the
wrong JSON type) or ValueError (it is out of range, or a list entry is bad).
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from dataclasses import MISSING as REQUIRED  # also a dataclass field's "no default"
from fractions import Fraction

from .errors import InvalidArgument


class Config:
    """Reader over one JSON object at ``path`` ("" at the file's top)."""

    def __init__(self, data, path: str = "", kind: str = "TypeError") -> None:
        self._check(path or "config", data, "an object", isinstance(data, dict), kind)
        self.data, self.path = data, path
        self._read: set[str] = set()
        self._children: list[Config] = []

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def is_object(self, key: str) -> bool:
        return isinstance(self.data.get(key), dict)

    def _where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _get(self, key: str, default):
        """(value, True) if the config gives one, else (default, False)."""
        self._read.add(key)
        if key in self.data and not (self.data[key] is None and default is None):
            return self.data[key], True
        if default is REQUIRED:
            raise InvalidArgument(f"KeyError: {self.path or 'config'} needs {key!r}")
        return default, False

    def require(self, *keys: str) -> None:
        """Refuse the object unless it has all of ``keys``; names each one missing."""
        missing = [key for key in keys if key not in self.data]
        if missing:
            raise InvalidArgument(f"{self.path or 'config'} missing required fields: {missing}")

    @staticmethod
    def _check(where: str, value, what: str, ok: bool, kind="TypeError", lo=None, hi=None):
        if not ok:
            raise InvalidArgument(f"{kind}: {where} must be {what}, got {value!r}")
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            span = " and ".join(f"{op} {v}" for op, v in ((">=", lo), ("<=", hi)) if v is not None)
            raise InvalidArgument(f"ValueError: {where} must be {span}, got {value!r}")

    def int(self, key: str, default=REQUIRED, lo=None, hi=None):
        value, given = self._get(key, default)
        if given:
            self._check(self._where(key), value, "an integer", type(value) is int, lo=lo, hi=hi)
        return value

    def number(self, key: str, default=REQUIRED, lo=None, hi=None):
        """An integer or a float, finite as a float."""
        value, given = self._get(key, default)
        if given:
            self._check(self._where(key), value, "a number", type(value) in (int, float))
            self._check(self._where(key), value, "finite", abs(value) <= sys.float_info.max,
                        "ValueError", lo, hi)
        return value

    def string(self, key: str, default=REQUIRED, choices=()):
        value, given = self._get(key, default)
        if given:
            self._check(self._where(key), value, "a string", isinstance(value, str))
            self._check(self._where(key), value, f"one of {', '.join(choices)}",
                        not choices or value in choices, "ValueError")
        return value

    def ints(self, key: str, default=REQUIRED, lo=None, hi=None):
        value, given = self._get(key, default)
        if given:
            self._check(self._where(key), value, "a list of integers", isinstance(value, list))
            for i, v in enumerate(value):
                self._check(f"{self._where(key)}[{i}]", v, "an integer", type(v) is int,
                            "ValueError", lo, hi)
        return value

    def obj(self, key: str, default=REQUIRED) -> Config | None:
        value, given = self._get(key, default)
        return self._child(value, self._where(key)) if given or value is not None else None

    def objects(self, key: str, default=REQUIRED) -> list[Config]:
        value, _ = self._get(key, default)
        self._check(self._where(key), value, "a list of objects", isinstance(value, list))
        return [self._child(v, f"{self._where(key)}[{i}]", "ValueError")
                for i, v in enumerate(value)]

    def _child(self, data, path: str, kind: str = "TypeError") -> Config:
        self._children.append(Config(data, path, kind))
        return self._children[-1]

    def done(self) -> None:
        """Refuse any key that no accessor asked for, here or in a child."""
        unknown = [key for key in self.data if key not in self._read]
        if unknown:
            raise InvalidArgument(f"KeyError: unknown key {self._where(unknown[0])!r}; "
                                 f"known: {', '.join(sorted(self._read))}")
        for child in self._children:
            child.done()


@contextlib.contextmanager
def reading(data):
    """A reader over ``data``.  A dict gets a new node, which refuses
    unread keys when the block ends without an error; a node passes
    through as it is, for whoever made it to check."""
    node = data if isinstance(data, Config) else Config(data)
    yield node
    if node is not data:
        node.done()


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, the one writer of every output.

    The file is opened without truncating it, overwritten and then cut at
    the written length, so a rerun does not pay the flush that ext4 starts
    when an existing file is truncated to zero.  The inode stays: a
    symlink, a hard link and the mode behave as under ``open(path, "w")``.
    Only a regular file is cut; ``/dev/null`` refuses ``ftruncate``.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def written(value):
    """``value`` as every output writes it: reports hold exact values, and
    a Fraction is rounded to its float here only."""
    return float(value) if isinstance(value, Fraction) else value


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as indented JSON with sorted keys,
    each Fraction as written(); any other object that JSON cannot write
    raises TypeError."""
    def fraction(value):
        if not isinstance(value, Fraction):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        return written(value)
    write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=fraction) + "\n")


def exact(x) -> Fraction:
    """``x`` as a Fraction; a float is read as the decimal its repr writes."""
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def within(value, limit, base=1, power=0) -> bool:
    """Whether value <= limit * base^power, decided exactly: every check
    of the program is this comparison.

    ``value``, ``limit``, ``base`` > 0 and ``power`` are rationals; a
    float among them is read as the decimal its repr writes, which for a
    number parsed from a config is the decimal that was written.  A
    ``power`` p/q raises both sides to q, so a bound such as
    2 * 2^((m - k)/2) is compared without rounding: value^q against
    limit^q * base^p when neither is negative.
    """
    value, limit, base, power = map(exact, (value, limit, base, power))
    if value < 0 and limit < 0:
        # -limit * base^power <= -value, between positive sides
        return within(-limit, -value, base, -power)
    if value < 0 or limit < 0:
        return value < 0
    return value ** power.denominator <= limit ** power.denominator * base ** power.numerator


def power_bound(limit, base=1, power=0) -> Fraction | float:
    """limit * base^power as a report holds it: a Fraction at an integer
    power, else the float ``float(limit) * base ** power``, as it may not
    be rational."""
    if Fraction(power).denominator == 1:
        return Fraction(limit) * Fraction(base) ** int(power)
    return float(limit) * base ** power
