"""The Python and numpy floors that pyproject.toml declares are the
versions CI installs and README states, so no declared floor goes
untested."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _only(pattern: str, name: str) -> str:
    found = re.findall(pattern, (ROOT / name).read_text())
    assert len(found) == 1, f"{name}: {len(found)} matches of {pattern!r}"
    return found[0]


def test_declared_floors_are_what_ci_installs():
    python = _only(r'requires-python = ">=(\d+\.\d+)"', "pyproject.toml")
    numpy = _only(r'"numpy>=(\d+\.\d+)"', "pyproject.toml")
    workflow = ".github/workflows/tier1.yml"
    assert _only(r'python-version: "(\d+\.\d+)"', workflow) == python
    assert _only(r'"numpy==(\d+\.\d+)\.\*"', workflow) == numpy
    assert _only(r"Requires Python ≥ (\d+\.\d+) and numpy ≥ (\d+\.\d+)\.",
                 "README.md") == (python, numpy)
