"""End-to-end CLI tests: exit codes, artifacts, and byte determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from minwise_lab import verify
from minwise_lab.cli import main, run_component_tests

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
    for name, seed in (("m1", "9"), ("m2", "9"), ("m3", "10")):
        out = tmp_path / name
        assert main(["measure", "--config", measure_config, "--out-dir", str(out),
                     "--mode", "mc", "--samples", "4000", "--run-seed", seed]) == 0
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
    assert "--mode mc" in capsys.readouterr().err
    assert main(["measure", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                 "--mode", "mc", "--samples", "2000"]) == 0


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


def test_prg_test_full_independence_has_zero_error(tmp_path, capsys):
    cfg = _write(tmp_path, "p.json", {
        "prg": {"kind": "full_independence"}, "dimension": 3, "alphabet": 4,
    })
    out = tmp_path / "out"
    assert main(["prg-test", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "prg_report.json").read_text())
    assert report["max_error"] == 0.0
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


def test_loads_test_rejects_y_equal_to_x(tmp_path, capsys):
    cfg = _write(tmp_path, "yx.json", {
        "allocation": "uniform", "ell": 2,
        "X": [1, 2, 3], "Y": [1, 2, 3], "regime": "large",
    })
    assert main(["loads-test", "--config", cfg]) == 2
    assert "strictly inside X" in capsys.readouterr().err


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
    for flag in ("--mode", "--samples", "--run-seed"):
        with pytest.raises(SystemExit) as exc:
            main(["reduction-test", "--config", cfg, flag, "1"])
        assert exc.value.code == 2


def test_run_component_tests_kwise_table(tmp_path, capsys):
    rc = run_component_tests("kwise", {"t": 2, "b": 3, "M": 8},
                             out_dir=tmp_path / "out")
    assert rc == 0
    report = json.loads((tmp_path / "out" / "kwise_report.json").read_text())
    assert len(report["rows"]) == 9  # theta 0..M
    assert all(row["within"] for row in report["rows"])
    assert "PASS" in capsys.readouterr().out


def test_run_component_tests_matches_subcommands(tmp_path, capsys):
    params = {"prg": {"kind": "full_independence"}, "dimension": 3, "alphabet": 4}
    assert run_component_tests("prg", params, out_dir=tmp_path / "a") == 0
    cfg = _write(tmp_path, "p.json", params)
    assert main(["prg-test", "--config", cfg, "--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "prg_report.json").read_bytes()
            == (tmp_path / "b" / "prg_report.json").read_bytes())


def test_run_component_tests_validates_input(tmp_path):
    with pytest.raises(ValueError, match="unknown component kind"):
        run_component_tests("sketch", {})
    with pytest.raises(ValueError, match="needs 't'"):
        run_component_tests("kwise", {"b": 3, "M": 8})


def test_threads_flag_accepted_and_validated(measure_config, tmp_path):
    out = tmp_path / "out"
    assert main(["measure", "--config", measure_config, "--out-dir", str(out),
                 "--threads", "4"]) == 0
    assert main(["measure", "--config", measure_config, "--out-dir", str(out),
                 "--threads", "0"]) == 2


def test_measure_bytes_do_not_depend_on_threads(tmp_path):
    # 21 seed bits: two 2^20-seed blocks, one per worker at --threads 2
    cfg = str(CONFIG_DIR / "kminwise_desk.json")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["measure", "--config", cfg, "--out-dir", str(out),
                     "--threads", threads]) == 0
        outs.append([(out / name).read_bytes() for name in ("measure.csv", "summary.json")])
    assert outs[0] == outs[1]


def test_prg_and_reduction_bytes_do_not_depend_on_threads(tmp_path):
    # recursive_mix N = M = 8 has 21 seed bits: two 2^20-seed blocks
    base = {"prg": {"kind": "recursive_mix"}, "dimension": 8, "alphabet": 8}
    runs = {"prg-test": ("prg_report.json", base),
            "reduction-test": ("reduction_report.json",
                               {**base, "X": [1, 2, 3, 4], "Y": [1, 2]})}
    for command, (report, params) in runs.items():
        cfg = _write(tmp_path, f"{command}.json", params)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / command / threads
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
