"""Every pinned CLI output (``tests/data/output_pins.json``) is reproduced
byte for byte: the exit status, stdout, stderr and each written file.

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
    assert capture.run_case(pin_cases[name], tmp_path / "out") == PINS[name]
