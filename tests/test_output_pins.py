"""Every pinned CLI output (``tests/data/output_pins.json``) is reproduced
byte for byte: the exit status, stdout, stderr and each written file.
Each case runs as a rerun: its out directory already holds every file it
pins, each its pinned bytes and 1 KiB more, so a file rewritten without
being cut to its new length keeps a stale tail and fails its pin.

A case that changes on purpose is re-captured with
``PYTHONPATH=src python tests/capture_output_pins.py --write``.
"""

from __future__ import annotations

import json

import pytest

import capture_output_pins as capture

PINS = json.loads(capture.PINS.read_text())


@pytest.fixture(scope="module")
def pin_cases(tmp_path_factory):
    return capture.cases(tmp_path_factory.mktemp("pin-configs"))


def test_the_pins_hold_every_case(pin_cases):
    assert sorted(pin_cases) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_is_pinned(name, pin_cases, tmp_path):
    out = tmp_path / "out"
    for file, text in PINS[name]["files"].items():
        (out / file).parent.mkdir(parents=True, exist_ok=True)
        (out / file).write_bytes(text.encode() + b"x" * 1024)
    assert capture.run_case(pin_cases[name], out) == PINS[name]
