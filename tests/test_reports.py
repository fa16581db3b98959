"""Reports hold exact values, and floats are made where outputs are written.

Every report type holds a Fraction for each rational value and an int for
each count; the few values that need not be rational (the Wilson
half-width, the implied tail constant, the mid regime's mean + ell^0.1
and a bound with a fractional power) are floats.  ``config.write_json``,
``ErrorReport.csv_row`` and the verdict lines round a Fraction to its
float, and nothing else.
"""

from __future__ import annotations

import dataclasses
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from minwise_lab import cli, verify
from minwise_lab.config import write_json
from minwise_lab.kwise import TWiseFamily
from minwise_lab.rectprg import TWisePRG

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "data" / "output_pins.json"


def _shipped(name: str, **changes) -> dict:
    return {**json.loads((ROOT / "configs" / f"{name}.json").read_text()), **changes}


def _float_keys(value) -> set[str]:
    """The keys of ``value``, a JSON object or list, that hold a float."""
    if isinstance(value, dict):
        return set().union(*(({k} if type(v) is float else set()) | _float_keys(v)
                             for k, v in value.items()))
    if isinstance(value, list):
        return set().union(*map(_float_keys, value))
    return set()


# every key that some pinned JSON output writes as a float
PINNED_FLOAT_KEYS = set().union(*(
    _float_keys(json.loads(text)) for case in json.loads(PINS.read_text()).values()
    for name, text in case["files"].items() if name.endswith(".json")))

# a value the config wrote, held and written as given
CONFIG_ECHOES = {"claimed_error"}

# (subcommand, config, the keys that hold a float: a value that need not be
# rational, or a config's float)
RUNNER_CASES = [
    ("extractor-test", _shipped("extractor_basic"), {"bound"}),
    ("extractor-test", _shipped("extractor_basic", flat_sources={"per_level": 0}), {"bound"}),
    ("prg-test", _shipped("prg_pairwise"), set()),
    ("prg-test", _shipped("prg_pairwise", thresholds=[]), set()),
    ("prg-test", _shipped("prg_pairwise", mode="mc", samples=5000), set()),
    ("prg-test", {"prg": {"kind": "full_independence"}, "dimension": 3, "alphabet": 4}, set()),
    ("prg-test", {"prg": {"kind": "twise", "t": 2, "claimed_error": 0.5}, "dimension": 4,
                  "alphabet": 8, "thresholds": [0, 3]}, {"claimed_error"}),
    ("kwise-test", _shipped("kwise_tails"), {"implied_constant"}),
    ("loads-test", _shipped("loads_small"), set()),
    # the B_J law of the uniform allocation
    ("loads-test", {"ell": 64, "X": list(range(1, 13)), "Y": [1, 2, 3, 4, 5],
                    "regime": "small"}, set()),
    # the mid regime's bad threshold and chain bound are powers of ell
    ("loads-test", {"ell": 4, "X": [1, 2, 3, 4], "Y": [1], "regime": "mid"},
     {"threshold", "chain_bound"}),
    # at e = 10 the chain's power of ell is -1, and its bound is rational
    ("loads-test", {"ell": 10, "X": list(range(1, 11)), "Y": [1], "regime": "mid"},
     {"threshold"}),
    ("loads-test", {"ell": 2, "X": list(range(1, 14)), "Y": [13], "regime": "large"}, set()),
    ("reduction-test", _shipped("reduction_pairwise"), set()),
]


def _leaves(held, out, key=None):
    """(key, held value, written value) for every leaf of a report and of
    the JSON it was written as."""
    if isinstance(held, dict):
        assert sorted(held) == sorted(out)
        for k in held:
            yield from _leaves(held[k], out[k], k)
    elif isinstance(held, list):
        assert len(held) == len(out)
        for h, o in zip(held, out):
            yield from _leaves(h, o, key)
    else:
        yield key, held, out


def _check_written(report: dict, tmp_path) -> set[str]:
    """Write ``report``, check that each Fraction in it is written as its
    float and that no key the pins write as a float holds an int, and
    return the keys that hold a float."""
    write_json(tmp_path / "report.json", report)
    floats = set()
    for key, held, out in _leaves(report, json.loads((tmp_path / "report.json").read_text())):
        if isinstance(held, Fraction):
            assert type(out) is float and out == float(held), key
        elif type(held) is float:
            floats.add(key)
        else:
            assert not (type(held) is int and key in PINNED_FLOAT_KEYS - CONFIG_ECHOES), \
                f"{key} holds the int {held!r}, written as {out!r}"
    return floats


def _check_types(report) -> None:
    """Every field of a report holds a type that its annotation names, so
    no Fraction field holds an int or a float."""
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        assert type(value).__name__ in f.type.replace("None", "NoneType").split(" | "), \
            (type(report).__name__, f.name, value)
        if dataclasses.is_dataclass(value):
            _check_types(value)


def test_the_pins_write_the_rational_keys_as_floats():
    assert {"max_distance", "max_error", "error", "bad_frequency", "exact_p",
            "mult_error", "max_mult_err_uniform", "value", "limit"} <= PINNED_FLOAT_KEYS


@pytest.mark.parametrize("command, params, held_floats", RUNNER_CASES,
                         ids=[f"{c}-{i}" for i, (c, *_) in enumerate(RUNNER_CASES)])
def test_each_oracle_report_holds_exact_values(command, params, held_floats, tmp_path):
    report = cli._SUBCOMMANDS[command][0](params, 1)[0]
    assert _check_written(report, tmp_path) == held_floats


def test_empty_levels_and_thresholds_write_float_zeros(tmp_path):
    report = cli._component_prg(_shipped("prg_pairwise", thresholds=[]), 1)
    assert report[0]["max_error"] == Fraction(0)
    assert report[2] == "max threshold error 0.0 over 0 rectangles"
    write_json(tmp_path / "prg.json", report[0])
    assert '"max_error": 0.0,' in (tmp_path / "prg.json").read_text()
    levels = cli._component_extractor(
        _shipped("extractor_basic", flat_sources={"per_level": 0}), 1)[0]["levels"]
    assert [lv["sources"] for lv in levels] == [0] * 4
    write_json(tmp_path / "extractor.json", levels)
    assert (tmp_path / "extractor.json").read_text().count('"max_distance": 0.0,') == 4


def test_full_independence_claims_an_exact_zero():
    report, ok, detail = cli._component_prg(
        {"prg": {"kind": "full_independence"}, "dimension": 3, "alphabet": 4}, 1)
    assert ok and report["claimed_error"] == Fraction(0)
    assert type(report["claimed_error"]) is Fraction
    assert detail.endswith(", claimed 0.0")


def test_every_report_type_holds_its_annotated_types():
    fam = TWiseFamily(2, 4, 8)
    corpus = [([1, 2, 3, 4], [1]), ([1, 2, 3], [2, 3])]
    reports = [*verify.measure_corpus(fam, corpus),
               *verify.measure_corpus(fam, corpus, samples=300, run_seed=2)]
    for rep in [*reports,
                verify.check_load_lemma("uniform", [1, 2, 3, 4, 5, 6], [1, 2], 16, "small"),
                verify.check_load_lemma(TWiseFamily(4, 5, 8), [1, 2, 3, 4, 5], [5], 8, "small",
                                        C_g=4),
                verify.check_load_lemma("uniform", [1, 2, 3, 4], [1], 4, "mid"),
                verify.check_load_lemma("uniform", range(1, 14), [13], 2, "large"),
                *verify.check_twise_tails(2, 3, range(9), 8),
                verify.check_reduction(TWisePRG(2, 4, 8), [1, 2, 3, 4], [1]),
                verify.check_reduction(TWisePRG(2, 4, 8), [1, 2, 3, 4], [1, 2])]:
        _check_types(rep)


def test_csv_rows_write_each_fraction_as_its_float():
    fam = TWiseFamily(2, 4, 8)
    corpus = [([1, 2, 3, 4], [1]), ([1, 2, 3], [2, 3])]
    for rep in [*verify.measure_corpus(fam, corpus),
                *verify.measure_corpus(fam, corpus, samples=300, run_seed=2)]:
        held = [getattr(rep, f.name) for f in dataclasses.fields(rep)]
        assert len(held) == len(verify.CSV_COLUMNS)
        for value, cell in zip(held, rep.csv_row()):
            want = repr(float(value)) if isinstance(value, Fraction) else (
                value if isinstance(value, str) else repr(value))
            assert cell == want
        assert type(rep.ci_halfwidth) is float


def test_measure_summary_writes_the_exact_summary(tmp_path, capsys):
    cfg = _shipped("minwise_desk")
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["measure", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    family, _, _, _, queries, limits = cli._measure_spec(cli.Config(cfg))
    exact = verify.exact_summary(verify.measure_corpus(family, queries))
    summary = json.loads((tmp_path / "summary.json").read_text())
    for name, value in exact.items():
        assert summary["summary"][name] == (value if name == "queries" else float(value))
        assert type(summary["summary"][name]) is (int if name == "queries" else float)
    for check in summary["thresholds"]:
        assert check["value"] == float(exact[check["name"]])
        assert check["limit"] == cfg["thresholds"][check["name"]] == float(limits[check["name"]])
    assert f"max mult_err_uniform={float(exact['max_mult_err_uniform'])!r}," in \
        capsys.readouterr().out


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(1), Decimal("0.5"), 1 + 2j, {1},
                                   object()])
def test_write_json_refuses_every_object_but_a_fraction(value, tmp_path):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        write_json(tmp_path / "out.json", {"value": value})
    assert not (tmp_path / "out.json").exists()
