"""Guard: every class and function in src/ is run by the program or public.

A definition counts as run when a name that reads it appears at module
level in ``src/minwise_lab`` (an import counts) or inside a definition
that is run itself; its own body does not count, and a dunder method is
run with its class.  Names are matched as written, not resolved.  A
method (a ``def`` directly in a class body) is reached only through an
attribute of its name, such as ``obj.name``: a local or free name that
happens to be spelled the same does not count.  Code that only the
tests read belongs in a ``tests/`` reference module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import minwise_lab
from minwise_lab import cli, construction, errors, extractor, kwise, rectprg, verify
from minwise_lab.errors import InvalidArgument

SRC = Path(__file__).resolve().parent.parent / "src" / "minwise_lab"

PUBLIC = {
    *minwise_lab.__all__,
    # the README's library tour
    "compose_extract", "rectangle_error",
    # wrapped by name by perfbench/trace_cli.py, and called by no subcommand
    "eval_block", "extract_table",
}


def _definitions_and_reads() -> tuple[list, list]:
    """([(definition, enclosing definition, is a method)],
    [(enclosing definition, name read, read as an attribute)]), a
    definition being (file, line, name) and None standing for module level."""
    defs, reads = [], []

    def visit(node, owner, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = (path, child.lineno, child.name)
                defs.append((key, owner, in_class))
                visit(child, key, path, isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Name):
                reads.append((owner, child.id, False))
            elif isinstance(child, ast.Attribute):
                reads.append((owner, child.attr, True))
            elif isinstance(child, ast.alias):
                reads.append((owner, child.name, False))
            visit(child, owner, path, in_class)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name, False)
    return defs, reads


def test_every_src_definition_is_run_or_public():
    defs, reads = _definitions_and_reads()
    live: set = set()
    while True:
        seen = [(name, attribute) for owner, name, attribute in reads
                if owner is None or owner in live]
        read = {name for name, _ in seen}
        as_attribute = {name for name, attribute in seen if attribute}
        grown = {key for key, owner, method in defs
                 if key[2] in PUBLIC or key[2] in (as_attribute if method else read)
                 or (key[2].startswith("__") and key[2].endswith("__")
                     and (owner is None or owner in live))}
        if grown <= live:
            break
        live |= grown
    assert sorted(key for key, *_ in defs if key not in live) == []


@pytest.mark.parametrize("call", [
    lambda: minwise_lab.check_load_lemma("uniform", [1, 2, 3], [1], 16, "small",
                                         independence=3),
    lambda: minwise_lab.check_load_lemma("uniform", [1, 2, 3], [1], 16, "small", t=3),
    lambda: minwise_lab.ConstructionParams(N=32, M=4, k=26, k_cap=32),
    lambda: minwise_lab.TWiseFamily(2, 8, 4, ctx=None),
    lambda: minwise_lab.TWisePRG(2, 4, 8, claimed_error=0.1),
    lambda: minwise_lab.RecursiveMixPRG(4, 8, claimed_error=0.1),
], ids=["independence", "t", "k_cap", "ctx", "twise_claimed_error",
         "recmix_claimed_error"])
def test_no_caller_restates_a_premise_the_object_fixes(call):
    # the allocation's degree, the small regime's t = log2 ell, the cap on
    # k, the field and a generator's error are read off the object itself;
    # a prg-test config states a claim
    with pytest.raises(TypeError):
        call()


# each a second name for an object its callers already name: the bucketed
# family classes, their ``layout``, DirectSumFamily, check_twise_tails on
# one theta, LeftoverHash.extract and the family's ``layout.draw_block``;
# kwise.check_mode, a second switch for what a sample count decides;
# kwise.scan_seeds, a second seed enumerator beside kwise.scan;
# verify.summarize_reports, which counted exact_summary's statistics again
# to give them as floats; and the exception classes that no caller caught
# by type, each an InvalidArgument whose message names the check
REMOVED_NAMES = [
    (minwise_lab, "build_minwise"), (minwise_lab, "build_kminwise"),
    (minwise_lab, "seed_layout"), (minwise_lab, "check_twise_tail"),
    (construction, "build_minwise"), (construction, "build_kminwise"),
    (construction, "seed_layout"), (verify, "check_twise_tail"),
    (kwise, "direct_sum"), (extractor, "leftover_extract"),
    (kwise.SeededFamily, "draw_seed_block"), (kwise, "check_mode"),
    (kwise, "scan_seeds"), (verify, "summarize_reports"), (cli, "run_component_tests"),
    *((errors, name) for name in (
        "ParamViolation", "NotFullRank", "BadSeedLength", "DomainOverflow",
        "RangeMismatch", "WidthError", "WidthMismatch", "DomainMismatch",
        "EmptyQuery", "RegimeMismatch")),
]


@pytest.mark.parametrize("owner,name", REMOVED_NAMES,
                         ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED_NAMES])
def test_one_name_per_library_object(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)


def test_second_spellings_are_gone():
    # extract_block takes the multipliers y_s = s + 1 only, and the package
    # exports the many-theta tail check in place of its one-theta form
    with pytest.raises(TypeError):
        minwise_lab.LeftoverHash(4, 2).extract_block(np.arange(4, dtype=np.uint64), ss=0)
    assert "check_twise_tails" in minwise_lab.__all__


def test_one_contract_error():
    # a bad argument or config raises InvalidArgument, SeedSpaceTooLarge is
    # the one type a caller catches by name, and a dead scan worker is a
    # RuntimeError, not a contract violation
    types = {name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    assert types == {"MinwiseLabError", "InvalidArgument", "SeedSpaceTooLarge",
                     "ScanWorkerFailed"}
    assert issubclass(errors.InvalidArgument, ValueError)
    assert not issubclass(errors.ScanWorkerFailed, errors.MinwiseLabError)


_FAMILY, _PRG = kwise.TWiseFamily(2, 4, 8), rectprg.TWisePRG(2, 4, 8)
SAMPLED = {
    "scan": lambda *a, **kw: kwise.scan(_FAMILY, len, *a, **kw),
    "measure_corpus": lambda *a, **kw: verify.measure_corpus(_FAMILY, [([1, 2], [1])], *a, **kw),
    "measure_minwise": lambda *a, **kw: verify.measure_minwise(_FAMILY, [1, 2], [1], *a, **kw),
    "strict_order_margins": lambda *a, **kw: rectprg.strict_order_margins(_PRG, [1], [2], *a,
                                                                         **kw),
    "threshold_errors": lambda *a, **kw: rectprg.threshold_errors(_PRG, [0, 1], *a, **kw),
    "rectangle_error": lambda *a, **kw: rectprg.rectangle_error(
        _PRG, rectprg.Rectangle.build(4, 8, {1: {1, 2}}), *a, **kw),
}


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_a_sample_count_is_the_one_sampling_switch(name):
    # a run is exact exactly when no sample count is given: no mode says so
    # a second time, and the sampling arguments are keyword-only
    call = SAMPLED[name]
    for kwargs in ({"mode": "exhaustive"}, {"mode": "mc", "samples": 10}):
        with pytest.raises(TypeError):
            call(**kwargs)
    with pytest.raises(TypeError):
        call("mc", 10)
    # a run seed keys only a draw
    with pytest.raises(InvalidArgument):
        call(run_seed=3)
    call()
    call(samples=10, run_seed=3)
