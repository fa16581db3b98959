"""``perfbench/run.py`` imported read-only, for the configs it generates.

Tests that must keep the benchmark's inputs working read them from the
benchmark itself rather than from a copy that could drift.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load(monkeypatch):
    """The benchmark module, imported without writing bytecode next to it;
    it stays in ``sys.modules`` (its dataclasses need that) for the test."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(bench)
    return bench
