"""The pinned outputs of the CLI, ``tests/data/output_pins.json``.

Each case runs one subcommand through ``minwise_lab.cli.main`` in this
process and records its exit status, stdout, stderr and the bytes of
every file it wrote under ``--out-dir``.  The cases are:

- every ``configs/`` file under its subcommand, at ``--threads`` 1 and 2
  where the subcommand takes them;
- Monte-Carlo runs of both desk configs and of ``prg_pairwise.json``:
  config files that set ``mode``, ``samples`` and ``run_seed``, over two
  draw chunks;
- Monte-Carlo configs that give no sample count, which exit 2;
- ``tests/data/kminwise_overlay_open.json``;
- the benchmark's configs at seed 1, generated by ``perfbench/run.py``
  itself (``tests/benchmark_module.py``), under the commands it runs;
- a ``full_independence`` prg-test, exhaustive and Monte-Carlo;
- a ``recursive_mix`` prg-test over every threshold, at dimension 4 and
  alphabet 16: the one pin of that generator whose errors depend on each
  level's offset (the benchmark's reads thresholds 0, 8 and 16 only);
- a loads-test of the default uniform allocation with |Y| = 5 at
  ell = 64, the one pin of its B_J law;
- a loads-test of a 3-wise allocation over GF(2^6): 18 seed bits in runs
  of 12 and 6 bits, scanned in four aligned blocks, the one pin of how
  an aligned block slices its run tables outside the benchmark's configs.

Usage, from the repository root:

    PYTHONPATH=src python tests/capture_output_pins.py           # print the cases that differ
    PYTHONPATH=src python tests/capture_output_pins.py --write   # rewrite the pins

Without ``--write`` nothing is written, and the exit status is 1 when a
case differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import benchmark_module
from minwise_lab import cli

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "data" / "output_pins.json"

# configs/ file -> its subcommand and whether that takes --threads
CONFIG_COMMANDS = {
    "extractor_basic": ("extractor-test", False),
    "kminwise_desk": ("measure", True),
    "kwise_tails": ("kwise-test", False),
    "loads_small": ("loads-test", False),
    "minwise_desk": ("measure", True),
    "prg_pairwise": ("prg-test", True),
    "reduction_pairwise": ("reduction-test", True),
}

# two draw chunks of 2^16 rows, so a run at two threads forks
MC = {"mode": "mc", "samples": 70001, "run_seed": 5}

BENCH_SEED = 1

FULL_INDEPENDENCE = {"prg": {"kind": "full_independence"}, "dimension": 4, "alphabet": 8}

# no thresholds: all of 0..16
RECURSIVE_MIX = {"prg": {"kind": "recursive_mix"}, "dimension": 4, "alphabet": 16}

UNIFORM_LOADS = {"ell": 64, "X": list(range(1, 13)), "Y": [1, 2, 3, 4, 5], "regime": "small"}

TWISE_LOADS = {"allocation": {"kind": "twise", "t": 3}, "N": 64, "ell": 64,
               "X": list(range(1, 7)), "Y": [1], "regime": "small"}


def _config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return str(path)


def cases(tmp: Path) -> dict[str, list[str]]:
    """Case name -> CLI arguments, without ``--out-dir``; the generated
    configs are written under ``tmp``."""
    out = {}
    for stem, (command, threads) in CONFIG_COMMANDS.items():
        argv = [command, "--config", str(ROOT / "configs" / f"{stem}.json")]
        if threads:
            for n in (1, 2):
                out[f"{stem}.t{n}"] = [*argv, "--threads", str(n)]
        else:
            out[stem] = argv
    for stem in ("kminwise_desk", "minwise_desk", "prg_pairwise"):
        base = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
        command = CONFIG_COMMANDS[stem][0]
        mc = _config(tmp / f"{stem}_mc.json", {**base, **MC})
        for n in (1, 2):
            out[f"{stem}_mc.t{n}"] = [command, "--config", mc, "--threads", str(n)]
        unsized = _config(tmp / f"{stem}_mc_unsized.json", {**base, "mode": "mc"})
        out[f"{stem}_mc_without_samples"] = [command, "--config", unsized]
    out["kminwise_overlay_open.t2"] = [
        "measure", "--config", str(ROOT / "tests" / "data" / "kminwise_overlay_open.json"),
        "--threads", "2"]
    with pytest.MonkeyPatch.context() as mp:
        bench = benchmark_module.load(mp)
        for make in bench.WORKLOADS.values():
            workload = make(BENCH_SEED, tmp)
            for name, cfg in workload.configs.items():
                _config(tmp / name, cfg)
            for cmd in workload.commands:
                out[f"bench_{workload.name}_{cmd.name}"] = cmd.argv
    exact = _config(tmp / "full_independence.json", FULL_INDEPENDENCE)
    out["full_independence"] = ["prg-test", "--config", exact]
    # no run_seed: the draw is keyed by the default, 0
    mc = _config(tmp / "full_independence_mc.json",
                 {**FULL_INDEPENDENCE, "mode": "mc", "samples": 50000})
    out["full_independence_mc"] = ["prg-test", "--config", mc]
    out["recursive_mix"] = ["prg-test", "--config",
                            _config(tmp / "recursive_mix.json", RECURSIVE_MIX)]
    out["uniform_loads"] = ["loads-test", "--config",
                            _config(tmp / "uniform_loads.json", UNIFORM_LOADS)]
    out["twise_loads"] = ["loads-test", "--config",
                          _config(tmp / "twise_loads.json", TWISE_LOADS)]
    return out


def run_case(argv: list[str], out_dir: Path) -> dict:
    """Exit status, stdout, stderr and every written file of one run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main([*argv, "--out-dir", str(out_dir)])
    files = {str(p.relative_to(out_dir)): p.read_bytes().decode()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return {"status": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def capture() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        return {name: run_case(argv, tmp / "out" / name)
                for name, argv in sorted(cases(tmp / "configs").items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {PINS.name}")
    args = parser.parse_args(argv)
    got = capture()
    if args.write:
        PINS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} cases to {PINS}")
        return 0
    pins = json.loads(PINS.read_text())
    differ = sorted(name for name in got.keys() | pins.keys() if got.get(name) != pins.get(name))
    for name in differ:
        print(name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
