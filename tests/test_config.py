"""The checked config reader: typed accessors, key paths in errors and
the refusal of keys that nothing reads."""

from __future__ import annotations

import re

import pytest

from minwise_lab.config import Config, reading
from minwise_lab.errors import ParamViolation


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
    with pytest.raises(ParamViolation, match=re.escape(message)) as exc:
        read(Config({"o": NODE}).obj("o"))
    assert isinstance(exc.value, ValueError)


def test_done_refuses_unread_keys_at_any_depth():
    cfg = Config({"a": 1, "o": {"b": 2, "typo": 3}})
    cfg.int("a")
    cfg.obj("o").int("b")
    with pytest.raises(ParamViolation, match=re.escape("KeyError: unknown key 'o.typo'; "
                                                       "known: b")):
        cfg.done()


def test_reading_checks_the_dicts_it_wraps():
    with pytest.raises(ParamViolation, match="unknown key 'extra'"):
        with reading({"a": 1, "extra": 2}) as cfg:
            cfg.int("a")
    # a failed read is reported as it is, before any unread key
    with pytest.raises(ParamViolation, match="config needs 'b'"):
        with reading({"a": 1}) as cfg:
            cfg.int("b")
    # a node passes through: whoever made it checks it
    node = Config({"a": 1, "extra": 2})
    with reading(node) as cfg:
        assert cfg is node and cfg.int("a") == 1
    with pytest.raises(ParamViolation, match=re.escape("config missing required fields: "
                                                       "['N', 'M']")):
        Config({"k": 1}).require("N", "M")
