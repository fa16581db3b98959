"""End-to-end CLI tests: exit codes, artifacts, and byte determinism."""

from __future__ import annotations

import csv
import ctypes
import gc
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import benchmark_module
import pytest
import reference_counts

import minwise_lab
from minwise_lab import verify
from minwise_lab.cli import _bound_allocator, _component_extractor, _corpus_queries, main
from minwise_lab.construction import BucketedMinwiseFamily, family_from_config
from minwise_lab.errors import InvalidArgument, ScanWorkerFailed
from minwise_lab.gf2 import find_irreducible
from minwise_lab.kwise import TWiseFamily
from minwise_lab.rectprg import TWisePRG, threshold_errors

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# Degree-0 outer PRG keeps the seed space at 17 bits so exhaustive
# measurement stays cheap; quality is not the point of these tests.
MINWISE_CONSTRUCTION = {
    "family": "minwise",
    "N": 4, "M": 4, "k": 1, "ell": 4, "t": 2,
    "prg1": {"kind": "twise", "t": 1},
    "prg2": {"kind": "twise", "t": 1},
    "extractor": {"kind": "leftover_hash", "n": 7, "m": 6},
}

SMALL_CORPUS = {
    "seed": 3,
    "queries": [
        {"kind": "intervals", "sizes": [3]},
        {"kind": "random_subsets", "count": 2, "size": 2},
    ],
}


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _shipped(name: str, path: tuple = (), value=None) -> dict:
    """configs/<name>.json, with the node at ``path`` replaced by ``value``."""
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if path:
        node[path[-1]] = value
    return cfg


def _fresh_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m minwise_lab.cli ARGV`` in a child process, as the benchmark
    and the console script start the CLI, on the package under test."""
    src = str(Path(minwise_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "minwise_lab.cli", *argv],
                          env=env, capture_output=True, timeout=300)


@pytest.fixture
def measure_config(tmp_path):
    return _write(tmp_path, "exp.json", {
        "construction": MINWISE_CONSTRUCTION,
        "corpus": SMALL_CORPUS,
        "mode": "exhaustive",
        "thresholds": {"max_mult_err_uniform": 0.2},
    })


def test_construct_prints_layout(capsys, tmp_path):
    cfg = _write(tmp_path, "c.json", MINWISE_CONSTRUCTION)
    assert main(["construct", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "seed_bits = 17" in out
    assert "g-seed: offset 0 width 4" in out


def test_construct_evaluates_a_point(capsys, tmp_path):
    cfg = _write(tmp_path, "c.json", MINWISE_CONSTRUCTION)
    assert main(["construct", "--config", cfg, "--seed", "0x1a2b", "--eval", "3"]) == 0
    value = int(capsys.readouterr().out.strip())
    assert 1 <= value <= 4
    # decimal and hex spellings of the same seed agree
    assert main(["construct", "--config", cfg, "--seed", str(0x1A2B),
                 "--eval", "3"]) == 0
    assert int(capsys.readouterr().out.strip()) == value


# Two k-min-wise constructions wider than a packed seed: the benchmark's
# Monte-Carlo family (84 bits) and one with a 70-bit overlay seed (132 bits).
WIDE_CONSTRUCTIONS = {
    "bench_mc_84": {"family": "kminwise", "N": 16, "M": 16, "k": 2, "ell": 4, "t": 2,
                    "C": 1, "C_g": 2, "C_s": 3, "C_e": 4,
                    "prg1": {"kind": "twise", "t": 2}, "prg2": {"kind": "twise", "t": 2},
                    "extractor": {"kind": "leftover_hash", "n": 10, "m": 8}},
    "kminwise_132": {"family": "kminwise", "N": 128, "M": 128, "k": 2, "ell": 4, "t": 2,
                     "prg1": {"kind": "twise", "t": 2}, "prg2": {"kind": "twise", "t": 1},
                     "extractor": {"kind": "leftover_hash", "n": 12, "m": 7}},
}


def test_construct_bytes_are_pinned(capsys, tmp_path):
    # field names, offsets and widths are part of the output format: stdout,
    # stderr, the exit status and construct.json of every configs/ file and
    # of the two wide constructions are pinned in tests/data
    pins = json.loads((ROOT / "tests" / "data" / "construct_pins.json").read_text())
    cases = {p.name: str(p) for p in sorted(CONFIG_DIR.glob("*.json"))}
    for name, construction in WIDE_CONSTRUCTIONS.items():
        cases[name] = _write(tmp_path, f"{name}.json", {"construction": construction})
    assert sorted(cases) == sorted(pins)
    for name, cfg in cases.items():
        out = tmp_path / f"out-{name}"
        status = main(["construct", "--config", cfg, "--out-dir", str(out)])
        written = out / "construct.json"
        got = {"status": status, **dict(zip(("stdout", "stderr"), capsys.readouterr())),
               "construct.json": written.read_text() if written.exists() else None}
        assert got == pins[name], name


def test_construct_usage_errors(capsys, tmp_path):
    cfg = _write(tmp_path, "c.json", MINWISE_CONSTRUCTION)
    assert main(["construct", "--config", cfg, "--eval", "3"]) == 2
    assert main(["construct", "--config", cfg, "--seed", "0xFFFFFFFF",
                 "--eval", "1"]) == 2
    assert main(["construct", "--config", cfg, "--seed", "zzz", "--eval", "1"]) == 2
    assert main(["construct", "--config", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_measure_writes_csv_and_summary(measure_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["measure", "--config", measure_config, "--out-dir", str(out)]) == 0
    lines = (out / "measure.csv").read_text().splitlines()
    assert lines[0] == "# minwise-lab schema v1"
    assert len(lines) == 2 + 6 + 2  # header rows + interval queries + random
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["queries"] == 8
    assert summary["thresholds"][0]["ok"] is True
    assert "pass" in capsys.readouterr().out


def test_measure_is_byte_deterministic(measure_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["measure", "--config", measure_config, "--out-dir", str(out1)]) == 0
    assert main(["measure", "--config", measure_config, "--out-dir", str(out2)]) == 0
    assert (out1 / "measure.csv").read_bytes() == (out2 / "measure.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_measure_mc_keyed_by_run_seed(measure_config, tmp_path):
    outs = []
    for name, seed in (("m1", 9), ("m2", 9), ("m3", 10)):
        out = tmp_path / name
        cfg = {**json.loads(Path(measure_config).read_text()),
               "mode": "mc", "samples": 4000, "run_seed": seed}
        assert main(["measure", "--config", _write(tmp_path, f"{name}.json", cfg),
                     "--out-dir", str(out)]) == 0
        outs.append((out / "measure.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_measure_empty_corpus(tmp_path, capsys):
    # the 35-bit k = 2 family is past the exhaustive budget, but an empty
    # corpus scans nothing, so it never asks for a seed block
    wide = json.loads((CONFIG_DIR / "kminwise_desk.json").read_text())["construction"]
    for name, construction in (("small", MINWISE_CONSTRUCTION),
                               ("wide", {**wide, "k": 2})):
        cfg = _write(tmp_path, f"{name}.json", {
            "construction": construction,
            "corpus": {"queries": []},
            "thresholds": {"max_mult_err_uniform": 0.2},
        })
        out = tmp_path / name
        assert main(["measure", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "measure.csv").read_text().splitlines()
        assert len(lines) == 2  # schema comment + column header only
    assert main(["construct", "--config", cfg]) == 0
    assert "seed_bits = 35" in capsys.readouterr().out


def test_measure_threshold_failure_exits_one(tmp_path):
    cfg = _write(tmp_path, "strict.json", {
        "construction": MINWISE_CONSTRUCTION,
        "corpus": SMALL_CORPUS,
        "thresholds": {"max_mult_err_uniform": 1e-6},
    })
    assert main(["measure", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1


def test_measure_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"construction": nope}')
    assert main(["measure", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "line 1" in capsys.readouterr().err

    no_constr = _write(tmp_path, "nc.json", {"corpus": SMALL_CORPUS})
    assert main(["measure", "--config", no_constr, "--out-dir", str(tmp_path)]) == 2

    bad_thresh = _write(tmp_path, "bt.json", {
        "construction": MINWISE_CONSTRUCTION,
        "corpus": SMALL_CORPUS,
        "thresholds": {"max_sharpness": 1.0},
    })
    assert main(["measure", "--config", bad_thresh, "--out-dir", str(tmp_path)]) == 2

    bad_corpus = _write(tmp_path, "bc.json", {
        "construction": MINWISE_CONSTRUCTION,
        "corpus": {"queries": [{"kind": "stripes"}]},
    })
    assert main(["measure", "--config", bad_corpus, "--out-dir", str(tmp_path)]) == 2


def test_library_bugs_propagate_instead_of_reading_as_config_errors(
        measure_config, tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(verify, "measure_corpus", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["measure", "--config", measure_config, "--out-dir", str(tmp_path)])
    assert "config error" not in capsys.readouterr().err


def test_a_killed_scan_worker_propagates_instead_of_reading_as_a_config_error(
        tmp_path, monkeypatch, capsys):
    # every forked worker of the desk measure dies at its first block
    parent = os.getpid()
    bind = BucketedMinwiseFamily.bind

    def dying(self, points):
        plan = bind(self, points)

        def block(seeds):
            if os.getpid() != parent:
                os._exit(9)
            return plan(seeds)

        return block

    monkeypatch.setattr(BucketedMinwiseFamily, "bind", dying)
    with pytest.raises(ScanWorkerFailed, match="exit code 9"):
        main(["measure", "--threads", "2", "--config", str(CONFIG_DIR / "minwise_desk.json"),
              "--out-dir", str(tmp_path)])
    assert "config error" not in capsys.readouterr().err


def test_library_argument_checks_still_exit_two(tmp_path, capsys):
    # the library's own argument checks raise InvalidArgument: the config
    # reader passes an extractor with m = n, LeftoverHash refuses it
    extractor = {**MINWISE_CONSTRUCTION["extractor"], "m": 7}
    cfg = {"construction": {**MINWISE_CONSTRUCTION, "extractor": extractor},
           "corpus": SMALL_CORPUS}
    assert main(["measure", "--config", _write(tmp_path, "m.json", cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error: output width 7 must be in [0, source width 7)" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out" / "measure.csv").exists()


def test_an_over_budget_exhaustive_run_names_the_monte_carlo_keys(tmp_path, capsys):
    # the 35-bit k = 2 family and a 26-bit pairwise generator are past the
    # 2^24 exhaustive budget; measure and prg-test give the same hint
    wide = {**_shipped("kminwise_desk")["construction"], "k": 2}
    measure = _write(tmp_path, "m.json", {"construction": wide,
                                          "corpus": {"queries": [{"kind": "full_domain"}]}})
    prg = _write(tmp_path, "p.json", _shipped("prg_pairwise", ("alphabet",), 1 << 13))
    for bits, argv in ((35, ["measure", "--config", measure, "--out-dir", str(tmp_path)]),
                       (26, ["prg-test", "--config", prg])):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {bits} seed bits exceed the 24-bit exhaustive budget; "
            'rerun with "mode": "mc" and "samples": <n> in the config\n')


def test_malformed_config_values_exit_two(tmp_path, capsys):
    # values that fail int() or float(), a missing key and an output
    # directory that is a file are config errors, not failed checks
    big = 10 ** 30
    ladder = [({"C_e": big}, "C_e=10"), ({"C_s": big, "C_e": big + 1}, "C_e=10"),
              ({"C_g": big, "C_s": big + 1, "C_e": big + 2}, "C_e=10"),
              ({"C_s": big}, "C_s=10"), ({"C_g": big}, "C_g=10")]
    cases = [
        ("measure", {"construction": {**MINWISE_CONSTRUCTION, "t": "two"},
                     "corpus": SMALL_CORPUS}, "two"),
        ("measure", {"construction": MINWISE_CONSTRUCTION, "corpus": SMALL_CORPUS,
                     "thresholds": {"max_mult_err_uniform": "tight"}}, "tight"),
        ("construct", {**MINWISE_CONSTRUCTION, "N": [4]}, "TypeError"),
        ("loads-test", {"allocation": {"kind": "twise"}, "N": 8, "ell": 16,
                        "X": [1, 2, 3], "Y": [1], "regime": "small"}, "KeyError"),
        ("extractor-test", {"n": "seven", "m": 6}, "seven"),
        # a declared entropy that nothing audited is refused like any other key
        ("extractor-test", {"n": 6, "m": 3, "claimed_entropy_k": 4},
         "unknown key 'claimed_entropy_k'"),
        ("construct", {**MINWISE_CONSTRUCTION, "extractor": {
            **MINWISE_CONSTRUCTION["extractor"], "claimed_entropy_k": 4}},
         "unknown key 'extractor.claimed_entropy_k'"),
        ("loads-test", {"ell": 4, "X": ["a", 2, 3], "Y": [2], "regime": "small"},
         "ValueError"),
        # premises that the audited object fixes are refused like any other key:
        # the allocation's degree, the polylog cap on k and a generator's error
        ("loads-test", _shipped("loads_small", ("independence",), 6),
         "unknown key 'independence'"),
        # the small regime's t is log2 ell, which no key restates
        ("loads-test", _shipped("loads_small", ("t",), 4), "unknown key 't'"),
        ("construct", _shipped("minwise_desk", ("construction", "k_cap"), 32),
         "unknown key 'construction.k_cap'"),
        ("construct", _shipped("minwise_desk", ("construction", "prg1", "claimed_error"), 1e-9),
         "unknown key 'construction.prg1.claimed_error'"),
        ("reduction-test", _shipped("reduction_pairwise", ("prg", "claimed_error"), 1e-9),
         "unknown key 'prg.claimed_error'"),
        ("prg-test", _shipped("prg_pairwise", ("prg",),
                              {"kind": "full_independence", "claimed_error": 0.1}),
         "full independence has error 0 by definition"),
        ("reduction-test", {"prg": {"kind": "twise", "t": 2}, "dimension": 4,
                            "alphabet": 8, "X": 5, "Y": [1]}, "TypeError"),
        # values that ended in a traceback, or ran without end, before every
        # key was read through the one checked reader
        *(("construct", _shipped(name, ("construction", "prg1", "t"), 10 ** 30),
           "construction.prg1.t must be >= 1 and <= 4")
          for name in ("minwise_desk", "kminwise_desk")),
        *(("construct", _shipped(name, ("construction",),
                                 {**_shipped(name)["construction"], **values}), diagnostic)
          for name in ("minwise_desk", "kminwise_desk") for values, diagnostic in ladder),
        *(("loads-test", _shipped("loads_small", ("C",), c), "C must be >= 1 and <= 1")
          for c in (-1, 10 ** 30)),
        *(("extractor-test", _shipped("extractor_basic", ("flat_sources",), v),
           "flat_sources must be an object") for v in ("x", -1, 1.5, 10 ** 30)),
        ("extractor-test", _shipped("extractor_basic", ("m",), -1), "m must be >= 0"),
        ("extractor-test", _shipped("extractor_basic", ("flat_sources", "per_level"), 10 ** 30),
         "flat_sources.per_level must be >= 0 and <= 16384"),
        # a misspelled key, at the top and nested, and a point given twice
        ("measure", {**{k: v for k, v in _shipped("minwise_desk").items() if k != "thresholds"},
                     "thresolds": {"max_mult_err_uniform": 0.0}},
         "unknown key 'thresolds'; known: construction, corpus, mode, run_seed, samples, "
         "thresholds"),
        ("prg-test", _shipped("prg_pairwise", ("prg", "tt"), 3), "unknown key 'prg.tt'"),
        ("loads-test", _shipped("loads_small", ("X",), [1, 1, 2, 3, 4, 5, 6]), "duplicates"),
        # the tail table: t missing or past b, a misspelled key, an alphabet
        # the family refuses, and a b or M whose field is past the budget
        ("kwise-test", {"b": 3, "M": 8}, "needs 't'"),
        ("kwise-test", _shipped("kwise_tails", ("t",), 4), "t must be >= 1 and <= 3"),
        ("kwise-test", _shipped("kwise_tails", ("theta",), [1]), "unknown key 'theta'"),
        ("kwise-test", _shipped("kwise_tails", ("M",), 6), "power of two"),
        ("kwise-test", _shipped("kwise_tails", ("b",), 10 ** 30),
         "b must be >= 1 and <= 16777216"),
        ("kwise-test", _shipped("kwise_tails", ("M",), 10 ** 30), "M must be <= 16777216"),
    ]
    for i, (command, cfg, diagnostic) in enumerate(cases):
        path = _write(tmp_path, f"bad{i}.json", cfg)
        assert main([command, "--config", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and diagnostic in err
    blocked = tmp_path / "file"
    blocked.write_text("")
    cfg = _write(tmp_path, "good.json", {"construction": MINWISE_CONSTRUCTION,
                                         "corpus": SMALL_CORPUS})
    assert main(["measure", "--config", cfg, "--out-dir", str(blocked)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


# every node of every shipped config is replaced in turn by each of these
CONFIG_MUTANTS = (None, "x", -1, 0, [], {}, 1.5, 10 ** 30)


def _config_nodes(value, path: tuple = ()):
    """The path of every node under ``value``, objects and lists included."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _config_nodes(child, path + (key,))


def test_every_config_mutation_exits_with_a_status(tmp_path, capsys):
    # a mutant may pass, fail its checks or be refused, but never raise;
    # construction nodes go through construct and the rest of a measure
    # config through a 1024-sample Monte-Carlo measure
    oracles = {config: command for command, (config, _) in ORACLE_CONFIGS.items()}
    escapes, statuses = [], set()
    for config in sorted(CONFIG_DIR.glob("*.json")):
        for path in _config_nodes(_shipped(config.stem)):
            if config.name in oracles:
                argv = [oracles[config.name]]
            elif path[0] == "construction":
                argv = ["construct"]
            else:
                argv = ["measure"]
            for value in CONFIG_MUTANTS:
                mutant = _shipped(config.stem, path, value)
                if argv == ["measure"]:
                    mutant.update(mode="mc", samples=1024)
                cfg = _write(tmp_path, "mutant.json", mutant)
                try:
                    statuses.add(main([*argv, "--config", cfg,
                                       "--out-dir", str(tmp_path / "out")]))
                except Exception as exc:  # noqa: BLE001  (every escape is listed)
                    escapes.append(f"{config.name} {path} = {value!r}: {exc!r}")
                capsys.readouterr()
    assert escapes == []
    assert statuses == {0, 1, 2}


def test_benchmark_configs_pass_the_reader(tmp_path, monkeypatch, capsys):
    # a range check or the unknown-key rule must not turn benchmark runs
    # into failed operations.  perfbench/run.py is imported read-only for
    # the configs it generates; construct reads a measure config as
    # measure does, and each oracle config runs through its subcommand.
    bench = benchmark_module.load(monkeypatch)
    for workload in (bench.desk_workload, bench.mc_workload):
        for name, cfg in workload(0, tmp_path).configs.items():
            assert main(["construct", "--config", _write(tmp_path, name, cfg)]) == 0
    oracles = bench.oracle_configs(0)
    for command, name, _, _ in bench.ORACLE_COMMANDS:
        assert main([command, "--config", _write(tmp_path, name, oracles[name])]) == 0
    assert "config error" not in capsys.readouterr().err


def test_measure_rejects_intervals_larger_than_the_domain(tmp_path, capsys):
    # an interval wider than N = 4 has no position, so it would yield no
    # query and pass even a zero error limit
    cfg = _write(tmp_path, "wide.json", {
        "construction": MINWISE_CONSTRUCTION,
        "corpus": {"queries": [{"kind": "intervals", "sizes": [5]}]},
        "thresholds": {"max_mult_err_uniform": 0.0},
    })
    assert main(["measure", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert "interval size 5 outside (k, N]" in capsys.readouterr().err


def test_measure_checks_its_outputs_before_scanning(measure_config, tmp_path,
                                                   monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("measure scanned before checking its outputs")

    monkeypatch.setattr(verify, "measure_corpus", scan)
    assert main(["measure", "--config", measure_config]) == 2
    bad_thresh = _write(tmp_path, "bt.json", {
        "construction": MINWISE_CONSTRUCTION,
        "corpus": SMALL_CORPUS,
        "thresholds": {"max_sharpness": 1.0},
    })
    assert main(["measure", "--config", bad_thresh, "--out-dir", str(tmp_path)]) == 2


def test_measure_too_large_seed_space_suggests_mc(tmp_path, capsys):
    kcfg = {
        "family": "kminwise",
        "N": 4, "M": 4, "k": 2, "ell": 4, "t": 2,
        "prg1": {"kind": "twise", "t": 2},
        "prg2": {"kind": "twise", "t": 1},
        "extractor": {"kind": "leftover_hash", "n": 3, "m": 2},
    }
    cfg = _write(tmp_path, "k2.json", {
        "construction": kcfg,
        "corpus": {"seed": 1, "queries": [{"kind": "full_domain"}]},
    })
    assert main(["measure", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert '"mode": "mc" and "samples"' in capsys.readouterr().err
    cfg = _write(tmp_path, "k2.json", {**json.loads(Path(cfg).read_text()),
                                       "mode": "mc", "samples": 2000})
    assert main(["measure", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0


def test_extractor_test_smoke(tmp_path, capsys):
    cfg = _write(tmp_path, "e.json", {
        "n": 6, "m": 2, "flat_sources": {"per_level": 10, "rng_seed": 1},
    })
    out = tmp_path / "out"
    assert main(["extractor-test", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "extractor_report.json").read_text())
    assert report["full_rank"] is True
    assert len(report["levels"]) == 3
    assert all(lv["ok"] for lv in report["levels"])
    assert "PASS" in capsys.readouterr().out


def test_extractor_test_refuses_histograms_beyond_the_seed_budget(tmp_path, capsys):
    # n = 17, m = 16: 2^16 seeds x 2^16 outputs is 2^32 cells, past 2^24
    cfg = _write(tmp_path, "e.json", {"n": 17, "m": 16})
    assert main(["extractor-test", "--config", cfg]) == 2
    assert "2^32 (seed, output) cells exceed the 2^24" in capsys.readouterr().err


@pytest.mark.parametrize("flat_seed", [0, 1, 37, 63])
def test_extractor_test_matches_the_captured_oracle_reference(flat_seed, tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference" / "oracle_suite.json")
                           .read_text())
    cfg = reference["configs"]["extractor.json"]
    cfg["flat_sources"]["rng_seed"] = flat_seed
    path = _write(tmp_path, "extractor.json", cfg)
    assert (main(["extractor-test", "--config", path, "--out-dir", str(tmp_path)])
            == reference["exit_code"])
    report = json.loads((tmp_path / "extractor_report.json").read_text())
    assert report == reference["reports"]["extractor_report.json"][str(flat_seed)]


def test_prg_test_full_independence_has_zero_error(tmp_path, capsys):
    cfg = _write(tmp_path, "p.json", {
        "prg": {"kind": "full_independence"}, "dimension": 3, "alphabet": 4,
    })
    out = tmp_path / "out"
    assert main(["prg-test", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "prg_report.json").read_text())
    assert report["max_error"] == report["claimed_error"] == 0.0
    assert all(row["error"] == 0.0 for row in report["thresholds"])


def test_prg_test_claimed_error_enforced(tmp_path):
    ok_cfg = _write(tmp_path, "ok.json", {
        "prg": {"kind": "twise", "t": 2, "claimed_error": 0.25},
        "dimension": 4, "alphabet": 8,
    })
    assert main(["prg-test", "--config", ok_cfg, "--out-dir", str(tmp_path / "a")]) == 0
    bad_cfg = _write(tmp_path, "bad.json", {
        "prg": {"kind": "twise", "t": 2, "claimed_error": 1e-9},
        "dimension": 4, "alphabet": 8,
    })
    assert main(["prg-test", "--config", bad_cfg, "--out-dir", str(tmp_path / "b")]) == 1


def test_prg_test_claim_is_decided_exactly(tmp_path):
    # the errors of this exhaustive scan are dyadic, so the float of the
    # largest one writes it exactly; a claim 10^-13 below it must fail
    params = {"prg": {"kind": "twise", "t": 2}, "dimension": 4, "alphabet": 8}
    max_err = max(threshold_errors(TWisePRG(2, 4, 8), range(9)))
    assert Fraction(repr(float(max_err))) == max_err
    for claimed, status in ((float(max_err), 0), (float(max_err - Fraction(1, 10 ** 13)), 1)):
        cfg = _write(tmp_path, "c.json", {**params, "prg": {**params["prg"],
                                                             "claimed_error": claimed}})
        assert main(["prg-test", "--config", cfg]) == status, claimed


def test_measure_limit_is_decided_exactly(tmp_path):
    # the one query X = {1, 3, 4}, Y = {4} of the desk family, whose exact
    # max_mult_err_uniform lies above the decimal its float prints as; that
    # printed value, given back as the limit, is exceeded
    cfg = {**_shipped("minwise_desk"), "thresholds": {},
           "corpus": {"seed": 4, "queries": [{"kind": "random_subsets", "count": 1, "size": 3}]}}
    out = tmp_path / "out"
    assert main(["measure", "--config", _write(tmp_path, "a.json", cfg),
                 "--out-dir", str(out)]) == 0
    printed = json.loads((out / "summary.json").read_text())["summary"]["max_mult_err_uniform"]
    rep = verify.measure_minwise(family_from_config(cfg["construction"]), [1, 3, 4], [4])
    assert Fraction(repr(printed)) < abs(rep.measured_p - rep.uniform_ref) / rep.uniform_ref
    cfg["thresholds"] = {"max_mult_err_uniform": printed}
    assert main(["measure", "--config", _write(tmp_path, "b.json", cfg),
                 "--out-dir", str(out)]) == 1
    check = json.loads((out / "summary.json").read_text())["thresholds"]
    assert check == [{"name": "max_mult_err_uniform", "limit": printed, "value": printed,
                      "ok": False}]


@pytest.mark.parametrize("given", ["config", "flag"])
@pytest.mark.parametrize("key", ["samples", "run_seed"])
@pytest.mark.parametrize("command,config,report", [
    ("measure", "kminwise_desk", "summary.json"),
    ("prg-test", "prg_pairwise", "prg_report.json"),
])
def test_exhaustive_runs_refuse_a_sample_count_or_run_seed(command, config, report, key,
                                                           given, tmp_path, capsys):
    # an exhaustive run draws nothing, so it has no value of either to report
    cfg = _shipped(config)
    argv = [command, "--out-dir", str(tmp_path / "out")]
    if given == "flag":
        # the flags are gone: the run seed and sample count are config keys
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--config", _write(tmp_path, "c.json", cfg),
                  f"--{key.replace('_', '-')}", "100"])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        return
    cfg[key] = 100
    path = _write(tmp_path, "c.json", cfg)
    assert main([*argv, "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} applies only to Monte-Carlo runs" in err
    assert '"mode": "mc"' in err
    assert not (tmp_path / "out" / report).exists()
    if command == "prg-test":
        # and a Monte-Carlo run reads it
        path = _write(tmp_path, "c.json", {**cfg, "mode": "mc", "samples": 100})
        assert main([*argv, "--config", path]) == 0
        written = json.loads((tmp_path / "out" / report).read_text())
        assert written[key] == 100


@pytest.mark.parametrize("command,config,report", [
    ("measure", "minwise_desk", "summary.json"),
    ("prg-test", "prg_pairwise", "prg_report.json"),
])
def test_an_unknown_mode_exits_two(command, config, report, tmp_path, capsys):
    path = _write(tmp_path, "c.json", {**_shipped(config), "mode": "guess"})
    assert main([command, "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error: unknown mode 'guess'" in capsys.readouterr().err
    assert not (tmp_path / "out" / report).exists()


def test_loads_test_smoke(tmp_path, capsys):
    cfg = _write(tmp_path, "l.json", {
        "allocation": {"kind": "twise", "t": 2},
        "N": 8, "ell": 16, "X": [1, 2, 3, 4, 5, 6], "Y": [1],
        "regime": "small",
    })
    out = tmp_path / "out"
    assert main(["loads-test", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "loads_report.json").read_text())
    assert report["asserted_ok"] is True
    assert report["chain_tag"] == "holds"
    wrong_regime = _write(tmp_path, "wr.json", {
        "allocation": "uniform", "ell": 16,
        "X": list(range(1, 14)), "Y": [1], "regime": "small",
    })
    assert main(["loads-test", "--config", wrong_regime]) == 2


# loads-test configs on both sides of the load counter's dispatch:
# r = |X\\Y| = 4 < ell with a B_J tail, r = ell - 1, and r = 13 > ell = 2
# with the band [6, 7] of allowed loads
LOADS_PARITY_CONFIGS = {
    "small": {"allocation": {"kind": "twise", "t": 3}, "N": 32, "ell": 32,
              "X": list(range(1, 7)), "Y": [1, 2], "regime": "small"},
    "mid": {"allocation": {"kind": "twise", "t": 4}, "N": 16, "ell": 16,
            "X": list(range(1, 17)), "Y": [16], "regime": "mid"},
    "large": {"allocation": {"kind": "twise", "t": 4}, "N": 16, "ell": 2,
              "X": list(range(1, 15)), "Y": [14], "regime": "large"},
}


@pytest.mark.parametrize("size", sorted(LOADS_PARITY_CONFIGS))
def test_loads_report_matches_the_reference_counter(size, tmp_path, monkeypatch):
    cfg = _write(tmp_path, "l.json", LOADS_PARITY_CONFIGS[size])
    proc = _fresh_cli("loads-test", "--config", cfg, "--out-dir", str(tmp_path / "fresh"))
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(verify, "_scan_loads", reference_counts.scan_loads)
    assert main(["loads-test", "--config", cfg, "--out-dir", str(tmp_path / "ref")]) == 0
    assert ((tmp_path / "fresh" / "loads_report.json").read_bytes()
            == (tmp_path / "ref" / "loads_report.json").read_bytes())


ORACLE_CONFIGS = {
    "extractor-test": ("extractor_basic.json", "extractor_report.json"),
    "prg-test": ("prg_pairwise.json", "prg_report.json"),
    "kwise-test": ("kwise_tails.json", "kwise_report.json"),
    "loads-test": ("loads_small.json", "loads_report.json"),
    "reduction-test": ("reduction_pairwise.json", "reduction_report.json"),
}


@pytest.mark.parametrize("command", sorted(ORACLE_CONFIGS))
def test_fresh_process_matches_in_process_main(command, tmp_path, capsys):
    # the program path (argv from the command line) freezes the start-up
    # heap; an in-process main([...]) does not, and both give the same bytes
    config, report = ORACLE_CONFIGS[command]
    argv = [command, "--config", str(CONFIG_DIR / config)]
    proc = _fresh_cli(*argv, "--out-dir", str(tmp_path / "fresh"))
    status = main([*argv, "--out-dir", str(tmp_path / "in")])
    assert (proc.returncode, proc.stderr) == (status, b"")
    assert proc.stdout.decode() == capsys.readouterr().out
    assert ((tmp_path / "fresh" / report).read_bytes()
            == (tmp_path / "in" / report).read_bytes())


# main() run as the program in a fresh interpreter, then a JSON line on
# what the process holds: whether numpy was loaded before main, the
# minwise_lab modules, which of their namespaces sit in the collector's
# permanent generation, OPENBLAS_NUM_THREADS and the OS threads
PROGRAM_PROBE = """
import gc, json, os, sys
from minwise_lab import cli
numpy_first = "numpy" in sys.modules
sys.argv = ["minwise-lab", *sys.argv[1:]]
status = cli.main()
modules = sorted(m.removeprefix("minwise_lab.") for m in sys.modules
                 if m.startswith("minwise_lab."))
tracked = {id(o) for o in gc.get_objects()}
tasks = "/proc/self/task"
print(json.dumps({
    "status": status, "numpy_first": numpy_first, "modules": modules,
    "numpy_random": "numpy.random" in sys.modules,
    "frozen": [m for m in modules if id(vars(sys.modules["minwise_lab." + m])) not in tracked],
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""


def _program(*argv: str, openblas: str | None = None) -> dict:
    """PROGRAM_PROBE's report of ``minwise-lab ARGV``, run with
    OPENBLAS_NUM_THREADS set to ``openblas`` or unset."""
    src = str(Path(minwise_lab.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run([sys.executable, "-c", PROGRAM_PROBE, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_main_freezes_the_heap_only_as_the_program(monkeypatch, capsys):
    argv = ["construct", "--config", str(CONFIG_DIR / "minwise_desk.json")]
    before = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(sys, "argv", ["minwise-lab", *argv])
    try:
        assert main() == 0
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out.count("seed_bits = 23") == 2
    # the heap is frozen once the subcommand's own modules are loaded, so
    # that construction, which the handler imports, is frozen with the rest
    report = _program(*argv)
    assert report["status"] == 0 and "construction" in report["modules"]
    assert report["frozen"] == report["modules"]


BASE_MODULES = {"cli", "config", "errors"}
# each subcommand on a shipped config, and measure once more in Monte-Carlo
# mode: a run that draws (a corpus, flat sources, Monte-Carlo seeds) loads
# philox, and none loads numpy's random package
MC_MEASURE = {"mode": "mc", "samples": 4000, "run_seed": 5}
SUBCOMMAND_MODULES = {
    "construct": ("kminwise_desk.json",
                  {"construction", "extractor", "gf2", "kwise", "philox", "rectprg"}),
    "measure": ("minwise_desk.json",
                {"construction", "extractor", "gf2", "kwise", "philox", "rectprg", "verify"}),
    "measure-mc": ("minwise_desk.json",
                   {"construction", "extractor", "gf2", "kwise", "philox", "rectprg", "verify"}),
    "extractor-test": ("extractor_basic.json", {"extractor", "gf2", "philox"}),
    "prg-test": ("prg_pairwise.json", {"gf2", "kwise", "rectprg"}),
    "kwise-test": ("kwise_tails.json", {"gf2", "kwise", "rectprg", "verify"}),
    "loads-test": ("loads_small.json", {"gf2", "kwise", "rectprg", "verify"}),
    "reduction-test": ("reduction_pairwise.json", {"gf2", "kwise", "rectprg", "verify"}),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_each_subcommand_loads_only_the_modules_it_runs(command, tmp_path):
    config, modules = SUBCOMMAND_MODULES[command]
    config = str(CONFIG_DIR / config)
    if command.endswith("-mc"):
        command = command.removesuffix("-mc")
        config = _write(tmp_path, "mc.json", {**json.loads(Path(config).read_text()),
                                              **MC_MEASURE})
    report = _program(command, "--config", config, "--out-dir", str(tmp_path))
    assert report["status"] == 0
    assert not report["numpy_first"]
    assert report["numpy_random"] is False
    assert set(report["modules"]) == BASE_MODULES | modules


def test_the_program_starts_no_blas_threads_unless_asked(tmp_path, monkeypatch, capsys):
    argv = ("extractor-test", "--config", str(CONFIG_DIR / "extractor_basic.json"))
    report = _program(*argv)
    assert report["openblas"] == "1"
    assert report["threads"] in (1, None)   # None: no /proc/self/task to count
    assert _program(*argv, openblas="2")["openblas"] == "2"
    # a caller of main([...]) keeps its environment
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(list(argv)) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_the_package_resolves_its_exports_on_first_use():
    src = str(Path(minwise_lab.__file__).resolve().parents[1])
    code = ("import sys, minwise_lab; "
            "print(sorted(m for m in sys.modules if m.startswith('minwise_lab'))); "
            "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split("\n")
    assert out[:2] == ["['minwise_lab']", "False"]
    for name in minwise_lab.__all__:
        value = getattr(minwise_lab, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(minwise_lab)
    with pytest.raises(AttributeError):
        minwise_lab.not_an_export


# each name a handler builds with, and the subcommands that build with it
# (construct reads a measure config and a bare construction object apart)
CLI_NAMES = {
    "family_from_config": [("construct", "kminwise_desk.json"), ("construct", None)],
    "prg_from_config": [("reduction-test", "reduction_pairwise.json")],
    "TWiseFamily": [("loads-test", "loads_small.json")],
    "LeftoverHash": [("extractor-test", "extractor_basic.json")],
}


@pytest.mark.parametrize("name", sorted(CLI_NAMES))
def test_handlers_build_through_the_names_on_cli(name, tmp_path, monkeypatch, capsys):
    # a wrapper set on the cli module (as the per-layer tracer sets one) is
    # what the handler calls
    from minwise_lab import cli

    real, calls = getattr(cli, name), []
    monkeypatch.setattr(cli, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    bare = _write(tmp_path, "construction.json", MINWISE_CONSTRUCTION)
    for command, config in CLI_NAMES[name]:
        path = str(CONFIG_DIR / config) if config else bare
        before = len(calls)
        assert main([command, "--config", path]) == 0
        assert len(calls) > before
    assert cli.rank is sys.modules["minwise_lab.gf2"].rank


def test_loads_test_rejects_y_equal_to_x(tmp_path, capsys):
    cfg = _write(tmp_path, "yx.json", {
        "allocation": "uniform", "ell": 2,
        "X": [1, 2, 3], "Y": [1, 2, 3], "regime": "large",
    })
    assert main(["loads-test", "--config", cfg]) == 2
    assert "strictly inside X" in capsys.readouterr().err


def test_loads_test_refuses_an_empty_y_as_every_query_does(tmp_path, capsys):
    cfg = _write(tmp_path, "y.json", _shipped("loads_small", ("Y",), []))
    assert main(["loads-test", "--config", cfg]) == 2
    assert "config error: need a nonempty Y strictly inside X" in capsys.readouterr().err


def test_reduction_test_smoke(tmp_path):
    cfg = _write(tmp_path, "r.json", {
        "prg": {"kind": "twise", "t": 2}, "dimension": 4, "alphabet": 8,
        "X": [1, 2, 3, 4], "Y": [1],
    })
    out = tmp_path / "out"
    assert main(["reduction-test", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "reduction_report.json").read_text())
    assert report["asserted_ok"] is True
    assert report["rectangles_checked"] == 8


def test_reduction_test_is_exact_only(tmp_path, capsys):
    cfg = _write(tmp_path, "r.json", {
        "prg": {"kind": "twise", "t": 5}, "dimension": 32, "alphabet": 32,
        "X": [1, 2, 3], "Y": [1],
    })
    assert main(["reduction-test", "--config", cfg, "--threads", "2"]) == 2
    assert "25 seed bits exceed" in capsys.readouterr().err
    # argparse refuses the removed flags, as every subcommand does
    for flag in ("--mode", "--samples", "--run-seed"):
        with pytest.raises(SystemExit) as exc:
            main(["reduction-test", "--config", cfg, flag, "1"])
        assert exc.value.code == 2


def test_kwise_test_table(tmp_path, capsys, monkeypatch):
    per_theta = [verify.check_twise_tails(2, 3, [theta], 8)[0].to_json() for theta in range(9)]
    scans, strict_order_margins = [], verify.strict_order_margins

    def counting(*args, **kwargs):
        scans.append(args)
        return strict_order_margins(*args, **kwargs)

    monkeypatch.setattr(verify, "strict_order_margins", counting)
    argv = ["kwise-test", "--config", str(CONFIG_DIR / "kwise_tails.json")]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    assert len(scans) == 1  # one table answers every theta
    report = json.loads((tmp_path / "out" / "kwise_report.json").read_text())
    assert report["rows"] == per_theta  # theta 0..M
    assert all(row["within"] for row in report["rows"])
    assert "PASS" in capsys.readouterr().out


def test_threads_flag_accepted_and_validated(measure_config, tmp_path):
    out = tmp_path / "out"
    assert main(["measure", "--config", measure_config, "--out-dir", str(out),
                 "--threads", "4"]) == 0
    assert main(["measure", "--config", measure_config, "--out-dir", str(out),
                 "--threads", "0"]) == 2


def _measure_bytes(tmp_path, config: str, status: int = 0) -> list:
    """measure.csv and summary.json of in-process --threads 1 and 2 runs and of
    a fresh CLI process at --threads 2, as the benchmark starts one: it sets
    the allocator policy, then forks its workers.  Every run must exit with
    ``status``."""
    cfg = str(CONFIG_DIR / config)
    outs = []
    for threads, fresh in (("1", False), ("2", False), ("2", True)):
        out = tmp_path / f"t{threads}{'-fresh' if fresh else ''}"
        argv = ["measure", "--config", cfg, "--out-dir", str(out), "--threads", threads]
        if fresh:
            proc = _fresh_cli(*argv)
            assert proc.returncode == status, proc.stderr
        else:
            assert main(argv) == status
        outs.append([(out / name).read_bytes() for name in ("measure.csv", "summary.json")])
    return outs


def test_measure_bytes_do_not_depend_on_threads(tmp_path):
    # 21 seed bits: 32 seed blocks shared by the workers at --threads 2
    outs = _measure_bytes(tmp_path, "kminwise_desk.json")
    assert outs[0] == outs[1] == outs[2]


def test_kminwise_rows_the_overlay_leaves_open_are_pinned(tmp_path):
    # N = 8 past a 5-wise overlay: every |X| is 6 to 8, so no row is forced
    # uniform by the overlay alone (none reads 0), and each one depends on
    # what g, PRG1, the extractor and PRG2 give; 22 seed bits
    data = ROOT / "tests" / "data"
    outs = _measure_bytes(tmp_path, str(data / "kminwise_overlay_open.json"))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0][0] == (data / "kminwise_overlay_open_golden.csv").read_bytes()


def test_mc_measure_bytes_do_not_depend_on_threads(tmp_path):
    # 2^17 samples: two draw chunks of 2^16 rows, one per block.  The
    # config's thresholds are the exact answer's 0.0, which sampling error
    # misses, so every run exits 1 after writing its reports.
    cfg = _write(tmp_path, "mc.json", {**_shipped("kminwise_desk"),
                                       "mode": "mc", "samples": 1 << 17, "run_seed": 9})
    outs = _measure_bytes(tmp_path, cfg, status=1)
    assert outs[0] == outs[1] == outs[2]
    assert b'"mode": "mc"' in outs[0][1]


def test_mc_measure_on_a_132_bit_family(tmp_path):
    # the overlay seed is 70 bits, so each of its ten 7-bit words is drawn
    # on its own.  The overlay is 10-wise uniform, so h is uniform on any
    # 4-subset and every query lands near the uniform value.
    samples = 20000
    cfg = _write(tmp_path, "wide.json", {
        "construction": WIDE_CONSTRUCTIONS["kminwise_132"],
        "corpus": {"seed": 5, "queries": [{"kind": "random_subsets", "count": 2, "size": 4}]},
        "mode": "mc", "samples": samples, "run_seed": 17,
    })
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["measure", "--config", cfg, "--out-dir", str(out),
                     "--threads", threads]) == 0
        outs.append((out / "measure.csv").read_bytes())
    assert outs[0] == outs[1]
    p = float(verify.uniform_minwise_probability(4, 128, 2))
    sigma = math.sqrt(p * (1 - p) / samples)
    rows = list(csv.DictReader(outs[0].decode().splitlines()[1:]))
    assert len(rows) == 2
    for row in rows:
        assert (row["|X|"], row["k"], row["mode"], row["samples"]) == ("4", "2", "mc", "20000")
        assert abs(float(row["measured_p"]) - p) <= 5 * sigma


# the 84-bit k-min-wise family of the benchmark's Monte-Carlo workload
WIDE_CONSTRUCTION = {
    "family": "kminwise", "N": 16, "M": 16, "k": 2, "ell": 4, "t": 2,
    "C": 1, "C_g": 2, "C_s": 3, "C_e": 4,
    "prg1": {"kind": "twise", "t": 2}, "prg2": {"kind": "twise", "t": 2},
    "extractor": {"kind": "leftover_hash", "n": 10, "m": 8},
}


# Starts the command in its argv and prints its exit code and ru_maxrss.
# Linux keeps a process's peak across exec, and a child started straight
# from pytest begins with pytest's; a child of this small launcher begins
# with the launcher's, below any CLI run's own
PEAK_LAUNCHER = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _measure_peak_kib(*args: str, src: Path = ROOT / "src") -> int:
    """ru_maxrss (KiB on Linux) of a fresh ``python *args`` process, with
    the package imported from ``src``, which takes in the peaks of the
    scan workers it reaps."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, sys.executable, *args],
                         env=env, capture_output=True, text=True, check=True)
    status, peak_kib = map(int, run.stdout.split())
    assert status == 0
    return peak_kib


def test_mc_measure_peak_memory_does_not_grow_with_samples(tmp_path):
    # the benchmark's 84-bit k-min-wise family, one query
    cfg = {
        "construction": WIDE_CONSTRUCTION,
        "corpus": {"seed": 1, "queries": [{"kind": "random_subsets", "count": 1, "size": 3}]},
        "mode": "mc",
    }
    peak_kib = {samples: _measure_peak_kib(
        "-m", "minwise_lab.cli", "measure",
        "--config", _write(tmp_path, f"wide-{samples}.json", {**cfg, "samples": samples}),
        "--out-dir", str(tmp_path / str(samples)), "--threads", "1")
        for samples in (1 << 16, 1 << 20)}
    # 16 times the samples, drawn and counted in 2^16-row chunks
    assert peak_kib[1 << 20] - peak_kib[1 << 16] < 8 << 10, peak_kib


def test_mc_measure_at_one_thread_peaks_within_3_mb_of_two(monkeypatch, tmp_path):
    # the benchmark's MC config.  At --threads 1 the CLI process draws and
    # counts every slice itself, at 2 its forked workers do.  Each count
    # slice of 2^MC_COUNT_BITS rows is drawn where it is counted; with the
    # chunk's (65536, 17) uint16 block drawn whole first, the gap was 4.1 to
    # 4.7 MB; now it is 2.0 to 2.4 MB, with bytecode cached or not
    cfg = benchmark_module.load(monkeypatch).mc_workload(1, tmp_path).configs["mc.json"]
    path = _write(tmp_path, "mc.json", cfg)
    peak_kib = {threads: _measure_peak_kib(
        "-m", "minwise_lab.cli", "measure", "--config", path,
        "--out-dir", str(tmp_path / threads), "--threads", threads)
        for threads in ("1", "2")}
    assert peak_kib["1"] - peak_kib["2"] <= 3 << 10, peak_kib


def test_mc_measure_of_one_chunk_holds_at_most_3_mib():
    # the benchmark's family and query shape: 8 random queries of 6
    # points.  Each count slice of 2^MC_COUNT_BITS rows of the 2^16-row
    # chunk is drawn where it is counted (0.53 MiB of word columns), and
    # the numpy arrays peak at 2.43 MiB.  Drawn whole first (a 2.12 MiB
    # block), they peaked at 4.02 MiB, and counted whole at 8.79 MiB.
    # tracemalloc sees numpy's allocations, so the peak repeats exactly
    family = family_from_config(WIDE_CONSTRUCTION)
    queries = _corpus_queries({"corpus": {"seed": 1, "queries": [
        {"kind": "random_subsets", "count": 8, "size": 6}]}}, 16, 2)
    assert family.seed_bits == 84 and len(queries) == 8
    tracemalloc.start()
    try:
        verify.measure_corpus(family, queries, samples=1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20, peak / (1 << 20)


def test_benchmark_mc_corpus_draw_holds_at_most_64_kib(monkeypatch, tmp_path):
    # the benchmark's MC corpus, 8 queries of 6 of 16 points, reads about
    # 40 words of the stream, and each read computes only the blocks its
    # words lie in (6.4 KiB traced), where a read-ahead of 64 blocks peaked
    # at 21 KiB and one of at least 2048 blocks at 517 KiB.  The Philox
    # module is imported before the trace starts
    importlib.import_module("minwise_lab.philox")
    cfg = benchmark_module.load(monkeypatch).mc_workload(1, tmp_path).configs["mc.json"]
    tracemalloc.start()
    try:
        queries = _corpus_queries(cfg, 16, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(queries) == 8
    assert peak <= 64 << 10, peak / (1 << 10)


def test_benchmark_loads_scan_holds_at_most_1_mib(monkeypatch):
    # the benchmark's loads-test config: a 4-wise allocation over GF(2^5),
    # 20 seed bits in 16 blocks of 2^16.  Its point values are the outer
    # XOR of run-table slices, and each block's narrow cells are
    # bincounted 2^14 seeds at a time, so no block-sized intp copy
    # (512 KiB) is made; the numpy arrays peaked at 1.09 MiB with one, and
    # at 2.33 MiB through word columns, intp run indices and gathers
    cfg = benchmark_module.load(monkeypatch).oracle_configs(None)["loads.json"]
    g = TWiseFamily(cfg["allocation"]["t"], cfg["N"], cfg["ell"])
    assert g.seed_bits == 20
    tracemalloc.start()
    try:
        rep = verify.check_load_lemma(g, cfg["X"], cfg["Y"], cfg["ell"], cfg["regime"],
                                      cfg["C"], cfg["C_g"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.asserted_ok()
    assert peak <= 1 << 20, peak / (1 << 20)


def test_benchmark_loads_test_peaks_within_460_kib_of_its_imports(monkeypatch, tmp_path):
    # the benchmark's loads-test against a process that imports what it
    # imports and sets the allocator as it does: medians of 5 of each.
    # Both compile the package from a copy without bytecode, as the
    # benchmark runs it; from cached bytecode the imports peak about
    # 1.1 MB lower and the scan does not.  Each 2^14-seed count slice is
    # bound and counted on its own, and the gap read 268-368 KiB in 24
    # runs; with each 2^16-seed block evaluated whole first, 556-708 KiB.
    # The traced peak (above) sees neither: it is numpy's heap and code
    # pages, not its arrays
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "minwise_lab", src / "minwise_lab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    cfg = benchmark_module.load(monkeypatch).oracle_configs(None)["loads.json"]
    path = _write(tmp_path, "loads.json", cfg)
    loads, imports = [], []
    for _ in range(5):
        loads.append(_measure_peak_kib("-m", "minwise_lab.cli", "loads-test", "--config", path,
                                       "--out-dir", str(tmp_path / "out"), src=src))
        imports.append(_measure_peak_kib(
            "-c", "import minwise_lab.cli as cli, minwise_lab.verify; cli._bound_allocator()",
            src=src))
    assert statistics.median(loads) - statistics.median(imports) <= 460, (loads, imports)


def test_benchmark_extractor_runner_holds_at_most_1_mib(monkeypatch):
    # the benchmark's extractor-test: n = 12, m = 5, five flat sources at
    # each entropy 6..11.  The span table is 128 KiB of uint16, and each
    # source's distance is reduced 512 seeds at a time, so no (2^11, 2^5)
    # int32 count table or whole-table gather index is built; with them
    # and an int64 span table the runner peaked at 1.20 MiB.  The field's
    # log tables are built once per process, before the traced runs
    bench = benchmark_module.load(monkeypatch)
    find_irreducible(bench.oracle_configs(None)["extractor.json"]["n"])
    for flat_seed in (0, bench.FLAT_SEED_POOL - 1):
        params = bench.oracle_configs(flat_seed)["extractor.json"]
        tracemalloc.start()
        try:
            report, ok, _ = _component_extractor(params, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and len(report["levels"]) == 6
        assert peak <= 1 << 20, (flat_seed, peak / (1 << 20))


def _fake_libc(monkeypatch, **symbols):
    libc = types.SimpleNamespace(**symbols)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    return libc


def _recording_libc(monkeypatch, *names):
    """A fake libc with the named functions, each recording its calls
    into the one list it returns, in call order."""
    calls = []

    def recorder(name):
        def call(*args):
            calls.append((name, *args))
            return 1
        return call

    _fake_libc(monkeypatch, **{name: recorder(name) for name in names})
    return calls


def test_allocator_policy_sets_both_malloc_thresholds(monkeypatch):
    calls = _recording_libc(monkeypatch, "mallopt", "malloc_trim")
    _bound_allocator()
    # M_MMAP_THRESHOLD at glibc's 64-bit maximum, M_TRIM_THRESHOLD at 8 MiB,
    # then what start-up freed goes back to the OS
    assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, 8 << 20),
                     ("malloc_trim", 0)]


def test_allocator_policy_without_malloc_trim_still_sets_both_thresholds(monkeypatch):
    # musl has mallopt but no malloc_trim
    calls = _recording_libc(monkeypatch, "mallopt")
    _bound_allocator()
    assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, 8 << 20)]


def test_allocator_policy_is_a_no_op_without_mallopt(monkeypatch, capsys):
    libc = _fake_libc(monkeypatch)
    _bound_allocator()
    assert vars(libc) == {}
    assert capsys.readouterr() == ("", "")


def test_prg_and_reduction_bytes_do_not_depend_on_threads(tmp_path):
    # recursive_mix N = M = 8 has 21 seed bits: 32 seed blocks; the
    # Monte-Carlo prg-test draws 2^17 + 7 seeds, counted in three blocks
    base = {"prg": {"kind": "recursive_mix"}, "dimension": 8, "alphabet": 8}
    mc = {"mode": "mc", "samples": (1 << 17) + 7, "run_seed": 3}
    runs = {"prg-test": ("prg-test", "prg_report.json", base),
            "prg-test-mc": ("prg-test", "prg_report.json", {**base, **mc}),
            "reduction-test": ("reduction-test", "reduction_report.json",
                               {**base, "X": [1, 2, 3, 4], "Y": [1, 2]})}
    for name, (command, report, params) in runs.items():
        cfg = _write(tmp_path, f"{name}.json", params)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / name / threads
            assert main([command, "--config", cfg, "--out-dir", str(out),
                         "--threads", threads]) == 0
            outs.append((out / report).read_bytes())
        assert outs[0] == outs[1]


def test_pinned_desk_configs_parse(capsys):
    # the shipped configs stay loadable and pinned at the documented widths;
    # the full measurement runs live in the acceptance suite
    assert main(["construct", "--config", str(CONFIG_DIR / "minwise_desk.json")]) == 0
    assert "seed_bits = 23" in capsys.readouterr().out
    assert main(["construct", "--config", str(CONFIG_DIR / "kminwise_desk.json")]) == 0
    assert "seed_bits = 21" in capsys.readouterr().out
