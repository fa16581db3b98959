"""Check that the output pins catch small faults in the Monte-Carlo scan
and the direct sum.

The checkout is copied to a temporary directory.  Each mutation replaces
one exact string in one file of the copy (it must match exactly once),
runs ``tests/test_output_pins.py`` there and puts the file back.  The
unchanged copy must pass the pins first, and every mutation must then
fail them.  Usage, from the repository root:

    python tests/mutation_gates.py

The exit status is 0 when every mutation is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KWISE = "src/minwise_lab/kwise.py"

# (name, file, text, replacement)
MUTATIONS = [
    ("one value of dsum_values off by one", KWISE,
     "    s += 1\n    return s\n", "    s += 1\n    s[:1] += 1\n    return s\n"),
    ("Monte-Carlo chunk j drawn from jumped(j + 1)", KWISE,
     "stream.jumped(j)", "stream.jumped(j + 1)"),
    ("the last count slice of a chunk dropped", KWISE,
     "for lo in range(0, len(chunk), step))", "for lo in range(0, len(chunk), step)[:-1])"),
]


def pins_pass(copy: Path) -> bool:
    """Whether ``tests/test_output_pins.py`` passes in ``copy``."""
    # no bytecode is written, so a mutation and its undoing are always
    # compiled from their source
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests/test_output_pins.py"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        if not pins_pass(copy):
            print("the unchanged copy fails the output pins")
            return 1
        survived = []
        for name, file, text, replacement in MUTATIONS:
            path = copy / file
            source = path.read_text()
            if source.count(text) != 1:
                print(f"{name}: {text!r} occurs {source.count(text)} times in {file}")
                return 1
            path.write_text(source.replace(text, replacement))
            try:
                caught = not pins_pass(copy)
            finally:
                path.write_text(source)
            print(f"{'caught' if caught else 'SURVIVED'}: {name}")
            if not caught:
                survived.append(name)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
