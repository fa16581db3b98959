"""Check that the output pins catch small faults in the Monte-Carlo scan
and its count slices' draws, the stream's waiting half, the direct sum,
the verdict rule, the CLI's exit status for a bad config, the uniform
allocation's B_J law, the aligned t-wise block values, the in-place
rewrite of an output, the extractor distance's span slices, the
repeat count of the overlay's values on a block cut at h0's runs, the
loads count's seed slices, the exact multiplicative error and the
recursive-mix PRG's per-level offset.

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
CONFIG = "src/minwise_lab/config.py"
CLI = "src/minwise_lab/cli.py"
VERIFY = "src/minwise_lab/verify.py"
EXTRACTOR = "src/minwise_lab/extractor.py"
PHILOX = "src/minwise_lab/philox.py"
RECTPRG = "src/minwise_lab/rectprg.py"

# (name, file, text, replacement)
MUTATIONS = [
    ("one value of dsum_values off by one", KWISE,
     "    s += 1\n    return s\n", "    s += 1\n    s[:1] += 1\n    return s\n"),
    ("Monte-Carlo chunk j drawn from jumped(j + 1)", KWISE,
     "stream.jumped(j)", "stream.jumped(j + 1)"),
    ("the last row of a chunk dropped", KWISE,
     "min(lo + width, n))", "min(lo + width, n - 1))"),
    # every slice of a chunk then counts the chunk's first 2^14 rows again
    ("a count slice drawn from the chunk's first rows", KWISE,
     "n, lo, min(lo + width, n))", "n, 0, min(width, n - lo))"),
    # an odd count of halves then leaves no half waiting, so the next
    # 32-bit read starts at a fresh word: the measure pins' corpus draws
    # and the extractor-test pins' flat sources change
    ("the waiting half dropped", PHILOX,
     "end // 2 if end % 2 else None", "None"),
    # the kminwise_desk limit 0.0 on max_mult_err_uniform is met with equality
    ("the verdict compares strictly (`<` for `<=`)", CONFIG,
     "<= limit ** power.denominator", "< limit ** power.denominator"),
    # a config error other than an over-budget scan then ends in a traceback
    ("`main` catches `SeedSpaceTooLarge` alone", CLI,
     "    except MinwiseLabError as exc:", "    except SeedSpaceTooLarge as exc:"),
    # the uniform_loads pin's B_J frequency then counts too few placements
    ("the B_J law's new-bucket factor one short", VERIFY,
     "(ell - j + 1) * v", "(ell - j) * v"),
    # a run that reaches below an aligned block's top seed bit then reads
    # every block's slice from one word too high; only scans of several
    # blocks can show it (the twise_loads pin, whose bad frequency rises
    # from 0.108 to 0.428, and the benchmark's loads-test and
    # reduction-test), since one block whose seeds reach every run reads
    # each table whole
    ("an aligned block's slice base read from the next word's offset", KWISE,
     "base = (seeds.start >> low)", "base = (seeds.start >> (low + n))"),
    # every pin case reruns into a directory that holds its outputs with
    # 1 KiB more at the end, which an uncut rewrite keeps
    ("a rewrite keeps the old file's tail", CONFIG,
     "            fh.truncate()\n", "            pass\n"),
    # the benchmark's extractor-test pin reduces each distance in four
    # slices of 512 seeds and extractor_basic's in one, which then goes
    # uncounted too
    ("the extractor distance skips its last span slice", EXTRACTOR,
     "for lo in range(0, len(span), step):", "for lo in range(0, len(span), step)[:-1]:"),
    # the direct sum then evaluates phi on half of each run of h0, so a
    # k-min-wise pin's block (32 overlay values a block of kminwise_desk,
    # h0 at bit 11) holds half its seeds; the min-wise pins' blocks then
    # go through the layers with equal values
    ("the overlay's repeat count one bit short", KWISE,
     "seeds.stop >> offset), 1 << offset", "seeds.stop >> offset), 1 << offset - 1"),
    # every 2^16-seed loads block then counts three of its four 2^14-seed
    # slices: the benchmark's loads-test pin (16 blocks) and twise_loads
    # (4 blocks) count a quarter fewer seeds; loads_small's one block of
    # 256 seeds is one slice and still counts whole
    ("the loads count skips a block's last slice", VERIFY,
     "for lo in range(0, len(block), _COUNT_SLICE):",
     "for lo in range(0, max(1, len(block) - _COUNT_SLICE), _COUNT_SLICE):"),
    # each report then holds |p - u| / u of the rounded p and u: the four
    # Monte-Carlo measure pins write other last digits of mult_err_uniform
    ("mult_err_uniform formed from rounded floats", VERIFY,
     "mult_err_uniform=abs(measured - uniform) / uniform,",
     "mult_err_uniform=abs(float(measured) - float(uniform)) / float(uniform),"),
    # each level's hash is then a·x alone: the recursive_mix pin's error at
    # theta = 1 is then 3375/65536, not 225/65536; the benchmark's
    # recursive_mix prg-test reads only thresholds 0, 8 and 16, where they agree
    ("the recursive-mix level hash drops its offset", RECTPRG,
     "hashed = mul_block(self.ctx, x, a) ^ c", "hashed = mul_block(self.ctx, x, a)"),
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
