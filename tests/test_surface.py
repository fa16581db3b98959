"""Guard: every class and function in src/ is run by the program or public.

A definition counts as run when a name that reads it appears at module
level in ``src/minwise_lab`` (an import counts) or inside a definition
that is run itself; its own body does not count, and a dunder method is
run with its class.  Names are matched as written, not resolved, so a
method counts once any attribute of its name is read.  Code that only
the tests read belongs in a ``tests/`` reference module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import minwise_lab

SRC = Path(__file__).resolve().parent.parent / "src" / "minwise_lab"

PUBLIC = {
    *minwise_lab.__all__,
    # the README's library tour
    "compose_extract", "direct_sum", "rectangle_error", "run_component_tests",
    # wrapped by name by perfbench/trace_cli.py, and called by no subcommand
    "eval_block", "extract_table",
}


def _definitions_and_reads() -> tuple[list, list]:
    """([(definition, enclosing definition)], [(enclosing definition, name read)]),
    a definition being (file, line, name) and None standing for module level."""
    defs, reads = [], []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = (path, child.lineno, child.name)
                defs.append((key, owner))
                visit(child, key, path)
                continue
            if isinstance(child, ast.Name):
                reads.append((owner, child.id))
            elif isinstance(child, ast.Attribute):
                reads.append((owner, child.attr))
            elif isinstance(child, ast.alias):
                reads.append((owner, child.name))
            visit(child, owner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name)
    return defs, reads


def test_every_src_definition_is_run_or_public():
    defs, reads = _definitions_and_reads()
    live: set = set()
    while True:
        read = {name for owner, name in reads if owner is None or owner in live}
        grown = {key for key, owner in defs if key[2] in PUBLIC or key[2] in read
                 or (key[2].startswith("__") and key[2].endswith("__")
                     and (owner is None or owner in live))}
        if grown <= live:
            break
        live |= grown
    assert sorted(key for key, _ in defs if key not in live) == []


@pytest.mark.parametrize("call", [
    lambda: minwise_lab.check_load_lemma("uniform", [1, 2, 3], [1], 16, "small",
                                         independence=3),
    lambda: minwise_lab.ConstructionParams(N=32, M=4, k=26, k_cap=32),
    lambda: minwise_lab.TWiseFamily(2, 8, 4, ctx=None),
    lambda: minwise_lab.TWisePRG(2, 4, 8, claimed_error=0.1),
    lambda: minwise_lab.RecursiveMixPRG(4, 8, claimed_error=0.1),
], ids=["independence", "k_cap", "ctx", "twise_claimed_error", "recmix_claimed_error"])
def test_no_caller_restates_a_premise_the_object_fixes(call):
    # the allocation's degree, the cap on k, the field and a generator's
    # error are read off the object itself; a prg-test config states a claim
    with pytest.raises(TypeError):
        call()
