"""Guard for the per-layer tracer: every entry point it wraps must exist.

``perfbench/trace_cli.py`` patches library functions and methods by name
and lists any it cannot find under ``missing`` instead of failing, so a
refactor that renames or removes one would silently drop its spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# kminwise_desk runs `construct`: the patch list is settled before the
# command starts, so any command serves (its `measure`, as a fresh
# process, takes about 0.11 s)
COMMANDS = {
    "prg_pairwise": "prg-test",
    "loads_small": "loads-test",
    "reduction_pairwise": "reduction-test",
    "kminwise_desk": "construct",
}


@pytest.mark.parametrize("config", sorted(COMMANDS))
def test_tracer_finds_every_entry_point(config, tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans),
         "--", COMMANDS[config], "--config", str(ROOT / "configs" / f"{config}.json"),
         "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())["missing"] == []
