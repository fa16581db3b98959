"""The checked config reader: typed accessors, key paths in errors and
the refusal of keys that nothing reads; the exact verdict rule; and the
in-place writer of every output."""

from __future__ import annotations

import os
import re
import stat
from fractions import Fraction

import pytest

from minwise_lab.config import Config, reading, within, write_json
from minwise_lab.errors import InvalidArgument
from minwise_lab.verify import write_reports_csv


def test_accessors_read_values_and_defaults():
    cfg = Config({"n": 3, "x": 0.5, "s": "a", "xs": [1, 2], "o": {"k": 1},
                  "os": [{}], "z": None})
    assert cfg.int("n", lo=1, hi=3) == 3
    assert cfg.number("x") == 0.5
    assert cfg.string("s", choices=("a", "b")) == "a"
    assert cfg.ints("xs", lo=1) == [1, 2]
    assert cfg.obj("o").int("k") == 1
    assert [node.path for node in cfg.objects("os")] == ["os[0]"]
    # null reads as absent where the default is None
    assert cfg.int("z", None) is None and cfg.int("absent", 7) == 7
    assert cfg.obj("absent", None) is None and cfg.obj("empty", {}).data == {}
    cfg.done()


NODE = {"n": 3, "b": True, "f": 1.5, "big": 10 ** 400, "z": None, "s": "a",
        "xs": [1, 2], "mixed": [1, "a"]}


@pytest.mark.parametrize("read, message", [
    (lambda c: c.int("missing"), "KeyError: o needs 'missing'"),
    (lambda c: c.int("b"), "TypeError: o.b must be an integer, got True"),
    (lambda c: c.int("f"), "TypeError: o.f must be an integer, got 1.5"),
    (lambda c: c.int("n", lo=1, hi=2), "ValueError: o.n must be >= 1 and <= 2, got 3"),
    (lambda c: c.number("big"), "ValueError: o.big must be finite"),
    (lambda c: c.number("z"), "TypeError: o.z must be a number, got None"),
    (lambda c: c.string("n"), "TypeError: o.n must be a string, got 3"),
    (lambda c: c.string("s", choices=("b",)), "ValueError: o.s must be one of b, got 'a'"),
    (lambda c: c.ints("xs", lo=2), "ValueError: o.xs[0] must be >= 2, got 1"),
    (lambda c: c.ints("mixed"), "ValueError: o.mixed[1] must be an integer, got 'a'"),
    (lambda c: c.ints("n"), "TypeError: o.n must be a list of integers, got 3"),
    (lambda c: c.obj("s"), "TypeError: o.s must be an object, got 'a'"),
    (lambda c: c.objects("mixed"), "ValueError: o.mixed[0] must be an object, got 1"),
])
def test_errors_name_the_fault_and_the_key_path(read, message):
    with pytest.raises(InvalidArgument, match=re.escape(message)) as exc:
        read(Config({"o": NODE}).obj("o"))
    assert isinstance(exc.value, ValueError)


def test_done_refuses_unread_keys_at_any_depth():
    cfg = Config({"a": 1, "o": {"b": 2, "typo": 3}})
    cfg.int("a")
    cfg.obj("o").int("b")
    with pytest.raises(InvalidArgument, match=re.escape("KeyError: unknown key 'o.typo'; "
                                                       "known: b")):
        cfg.done()


def test_reading_checks_the_dicts_it_wraps():
    with pytest.raises(InvalidArgument, match="unknown key 'extra'"):
        with reading({"a": 1, "extra": 2}) as cfg:
            cfg.int("a")
    # a failed read is reported as it is, before any unread key
    with pytest.raises(InvalidArgument, match="config needs 'b'"):
        with reading({"a": 1}) as cfg:
            cfg.int("b")
    # a node passes through: whoever made it checks it
    node = Config({"a": 1, "extra": 2})
    with reading(node) as cfg:
        assert cfg is node and cfg.int("a") == 1
    with pytest.raises(InvalidArgument, match=re.escape("config missing required fields: "
                                                       "['N', 'M']")):
        Config({"k": 1}).require("N", "M")


TINY = Fraction(1, 10 ** 13)


def test_within_decides_a_rational_power_exactly():
    # 2 * 2^(1/2), 16^(1/10) and the leftover bound 2 * 2^((m - k)/2) at
    # m - k = -3, its power a float, are irrational; the float of each lies
    # within 10^-15 of it, so 10^-13 either side brackets it
    for limit, base, power in ((2, 2, Fraction(1, 2)), (1, 16, Fraction(1, 10)), (2, 2, -1.5)):
        near = Fraction(limit * float(base) ** float(power))
        assert within(near - TINY, limit, base, power)
        assert not within(near + TINY, limit, base, power)
    # 1024^(1/10) = 2 is rational, and met with equality
    assert within(2, 1, 1024, Fraction(1, 10))
    assert not within(2 + Fraction(1, 10 ** 30), 1, 1024, Fraction(1, 10))


def test_within_reads_floats_as_their_decimals_and_keeps_signs():
    # 0.1 + 0.2 prints as 0.30000000000000004, which is above 0.3
    assert within(Fraction(3, 10), 0.3) and not within(Fraction(3, 10) + TINY, 0.3)
    assert not within(0.1 + 0.2, 0.3)
    assert within(0, 0) and within(-1, 0) and not within(0, -1)
    assert within(-2, -1) and not within(-1, -2)
    # -3 <= -1 * 4^(1/2) = -2, and -1 > -2
    assert within(-3, -1, 4, Fraction(1, 2)) and not within(-1, -1, 4, Fraction(1, 2))


class _Row:
    def __init__(self, i):
        self.i = i

    def csv_row(self):
        return [self.i, "a,b"]


# the two writers of every output file, each writing n entries
WRITERS = {
    "json": lambda path, n: write_json(path, {"xs": list(range(n))}),
    "csv": lambda path, n: write_reports_csv(path, [_Row(i) for i in range(n)]),
}

LONG, SHORT = 40, 3


def _fresh(write, n, tmp_path):
    """The bytes of n entries written to a new file."""
    path = tmp_path / f"fresh_{n}"
    write(path, n)
    return path.read_bytes()


@pytest.mark.parametrize("kind", sorted(WRITERS))
@pytest.mark.parametrize("first, second", [(LONG, SHORT), (SHORT, LONG)])
def test_a_rewrite_reads_back_exactly_the_new_bytes(kind, first, second, tmp_path):
    write, path = WRITERS[kind], tmp_path / "out"
    write(path, first)
    write(path, second)
    want = _fresh(write, second, tmp_path)
    assert path.read_bytes() == want and len(want) != len(_fresh(write, first, tmp_path))


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_write_through_a_symlink_lands_in_its_target(kind, tmp_path):
    write, target, link = WRITERS[kind], tmp_path / "target", tmp_path / "link"
    write(target, LONG)
    link.symlink_to(target)
    write(link, SHORT)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == _fresh(write, SHORT, tmp_path)


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_write_through_a_symlink_to_dev_null_succeeds(kind, tmp_path):
    # /dev/null is not a regular file: ftruncate on it is EINVAL
    link = tmp_path / "link"
    link.symlink_to(os.devnull)
    WRITERS[kind](link, LONG)
    assert link.is_symlink() and os.readlink(link) == os.devnull


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_hard_link_sees_the_new_bytes(kind, tmp_path):
    write, path, hard = WRITERS[kind], tmp_path / "out", tmp_path / "hard"
    write(path, LONG)
    os.link(path, hard)
    write(path, SHORT)
    assert hard.read_bytes() == _fresh(write, SHORT, tmp_path)
    assert os.path.samefile(path, hard)


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_a_rewrite_keeps_the_mode(kind, tmp_path):
    write, path = WRITERS[kind], tmp_path / "out"
    write(path, LONG)
    path.chmod(0o600)
    write(path, SHORT)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
