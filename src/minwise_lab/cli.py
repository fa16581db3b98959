"""Batch experiment runner for the hash-family constructions and oracles.

Every run is driven by a JSON config file so results are reproducible
artifacts: an identical config gives byte-identical CSV/JSON outputs,
since a Monte-Carlo run's sample count and run seed are config keys.
Exit codes: 0 all checks passed, 1 a measured check failed, 2 usage or
config error.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

from .config import Config, reading, write_json
from .errors import EXHAUSTIVE_SEED_BITS, MinwiseLabError, SeedSpaceTooLarge

SUMMARY_THRESHOLD_KEYS = ("max_mult_err_uniform", "median_mult_err_uniform",
                          "max_mult_err_fair", "max_tie_mass")


# Library names that the handlers call as attributes of this module,
# imported from their modules on first use (PEP 562) so that a subcommand
# loads only what it runs.  perfbench/trace_cli.py wraps each of them here
# (and rank, which no handler calls) as the set-up span.
_LAZY = {
    "LeftoverHash": "extractor",
    "TWiseFamily": "kwise",
    "family_from_config": "construction",
    "prg_from_config": "rectprg",
    "rank": "gf2",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _lib(name: str):
    """The handlers' way to a name of _LAZY: the module's value, so that a
    wrapper set on the module is what runs."""
    return globals()[name] if name in globals() else __getattr__(name)


class _CliError(ValueError):
    """Raised for anything that should exit 2 with a diagnostic."""


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise _CliError(f"{path}: top-level config must be a JSON object")
    return cfg


def _config(args) -> dict:
    """The config file's object, once --threads is checked."""
    if getattr(args, "threads", 1) < 1:
        raise _CliError("--threads must be >= 1")
    return _read_json(args.config)


def _philox_key(cfg: Config, key: str, default: int | None = 0) -> int | None:
    """A counter-based RNG key; numpy's Philox takes [0, 2^128)."""
    return cfg.int(key, default, lo=0, hi=(1 << 128) - 1)


def _sampling(cfg: Config) -> tuple[str, int | None, int | None]:
    """(mode, samples, run_seed) of a measure or prg-test config, the last
    two None in an exhaustive run.  It draws nothing, so a sample count or
    run seed given to it is refused rather than reported."""
    mode = cfg.string("mode", "exhaustive")
    if mode not in ("exhaustive", "mc"):
        raise _CliError(f"unknown mode {mode!r}")
    samples, run_seed = cfg.int("samples", None, lo=1), _philox_key(cfg, "run_seed", None)
    if mode == "mc" and samples is None:
        raise _CliError("monte-carlo mode needs a positive sample count")
    if mode == "exhaustive":
        for key, value in (("samples", samples), ("run_seed", run_seed)):
            if value is not None:
                raise _CliError(f"{key} applies only to Monte-Carlo runs; an exhaustive "
                                'run enumerates every seed (set "mode": "mc")')
    return mode, samples, run_seed


def _out_dir(args) -> Path | None:
    if not getattr(args, "out_dir", None):
        return None
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create output directory {out}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    # a whole measure config is read as measure reads it
    with reading(_config(args)) as cfg:
        family = (_measure_spec(cfg)[0] if "construction" in cfg
                  else _lib("family_from_config")(cfg))
    if args.eval is not None and args.seed is None:
        raise _CliError("--eval requires --seed")
    if args.seed is not None:
        try:
            seed = int(args.seed, 0)
        except ValueError:
            raise _CliError(f"seed {args.seed!r} is not an integer literal")
        if not 0 <= seed < family.seed_space:
            raise _CliError(
                f"seed {args.seed} outside the {family.seed_bits}-bit seed space"
            )
        if args.eval is not None:
            print(family.eval(seed, args.eval))
        else:
            for name, value in family.layout.unpack(seed).items():
                print(f"{name} = {value:#x}")
    else:
        print(family.family_id)
        print(f"seed_bits = {family.seed_bits}")
        for f in family.layout.fields:
            print(f"{f.name}: offset {f.offset} width {f.width}")
    out = _out_dir(args)
    if out is not None:
        write_json(out / "construct.json", {
            "family_id": family.family_id,
            "seed_bits": family.seed_bits,
            "layout": [
                {"name": f.name, "offset": f.offset, "width": f.width}
                for f in family.layout.fields
            ],
        })
    return 0


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def _corpus_queries(cfg: Config | dict, N: int, k: int) -> list:
    """The queries of a measure config's corpus."""
    import numpy as np

    corpus = (cfg if isinstance(cfg, Config) else Config(cfg)).obj("corpus", {})
    rng = np.random.Generator(np.random.Philox(key=_philox_key(corpus, "seed")))
    queries = []
    for spec in corpus.objects("queries", []):
        kind = spec.string("kind", choices=("full_domain", "intervals", "random_subsets"))
        if kind == "full_domain":
            X = list(range(1, N + 1))
            if len(X) <= k:
                raise _CliError(f"full_domain needs |X| > k={k}")
            queries += [(X, list(Y)) for Y in itertools.combinations(X, k)]
        elif kind == "intervals":
            for size in spec.ints("sizes", []):
                if size <= k or size > N:
                    raise _CliError(f"interval size {size} outside (k, N]")
                for lo in range(1, N - size + 2):
                    X = list(range(lo, lo + size))
                    queries += [(X, list(Y)) for Y in itertools.combinations(X, k)]
        else:
            size = spec.int("size", 0)
            if size <= k or size > N:
                raise _CliError(f"random subset size {size} outside (k, N]")
            # draws past the number of distinct (X, Y) pairs only repeat them
            count = spec.int("count", 0, lo=0, hi=math.comb(N, size) * math.comb(size, k))
            for _ in range(count):
                X = sorted(int(v) for v in rng.choice(N, size=size, replace=False) + 1)
                Y = sorted(int(v) for v in rng.choice(X, size=k, replace=False))
                queries.append((X, Y))
    return queries


def _measure_spec(cfg: Config) -> tuple:
    """(family, mode, samples, run_seed, queries, threshold limits by name)."""
    family = _lib("family_from_config")(cfg.obj("construction"))
    mode, samples, run_seed = _sampling(cfg)
    queries = _corpus_queries(cfg, family.domain_size, family.params.k)
    thresholds = cfg.obj("thresholds", {})
    limits = {name: thresholds.number(name, None) for name in sorted(SUMMARY_THRESHOLD_KEYS)}
    limits = {name: float(limit) for name, limit in limits.items() if limit is not None}
    return family, mode, samples, run_seed, queries, limits


def _cmd_measure(args) -> int:
    from . import verify

    with reading(_config(args)) as cfg:
        family, mode, samples, run_seed, queries, limits = _measure_spec(cfg)
    out = _out_dir(args)
    if out is None:
        raise _CliError("measure needs --out-dir for its CSV/JSON artifacts")
    try:
        reports = verify.measure_corpus(family, queries, samples=samples,
                                        run_seed=run_seed, threads=args.threads)
    except SeedSpaceTooLarge as exc:
        raise _CliError(f'{exc}; rerun with "mode": "mc" and "samples": <n> in the config')

    verify.write_reports_csv(out / "measure.csv", reports)
    summary = verify.summarize_reports(reports)
    checks = [{"name": name, "limit": limit, "value": summary.get(name),
               "ok": summary.get(name) is None or summary[name] <= limit}
              for name, limit in limits.items()]
    verify.write_json(out / "summary.json", {
        "family_id": family.family_id,
        "k": family.params.k,
        "mode": mode,
        "samples": samples,
        "run_seed": run_seed or 0,
        "summary": summary,
        "thresholds": checks,
    })
    ok = all(c["ok"] for c in checks)
    print(
        f"measure: {summary['queries']} queries, "
        f"max mult_err_uniform={summary['max_mult_err_uniform']}, "
        f"thresholds {'pass' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# component tests: each runner reads a config dict, checks it, runs its
# oracle and returns (report, ok, verdict detail)
# ---------------------------------------------------------------------------


def _component_extractor(params: dict, threads: int) -> tuple[dict, bool, str]:
    import numpy as np

    from .extractor import (FlatSource, leftover_bound, spans_full_rank,
                            strong_extractor_distance)

    with reading(params) as cfg:
        n, m = cfg.int("n", lo=1), cfg.int("m", lo=0)
        # the span table and each flat source's counts have 2^(d+m) cells
        if n - 1 + m > EXHAUSTIVE_SEED_BITS:
            raise _CliError(
                f"{n - 1}-bit seeds x {m}-bit outputs: 2^{n - 1 + m} (seed, output) "
                f"cells exceed the 2^{EXHAUSTIVE_SEED_BITS} exhaustive budget"
            )
        ext = _lib("LeftoverHash")(n, m)
        fs = cfg.obj("flat_sources", None)
        if fs is not None:
            rng = np.random.Generator(np.random.Philox(key=_philox_key(fs, "rng_seed")))
            # and the sources of one level count theirs under the same budget
            per = fs.int("per_level", 50, lo=0, hi=1 << (EXHAUSTIVE_SEED_BITS - (n - 1 + m)))
    n_seeds = 1 << ext.d
    full_rank = bool(spans_full_rank(ext.span_table()).all())

    levels = []
    if fs is not None:
        for entropy in range(ext.m + 1, ext.n):
            worst = 0.0
            for _ in range(per):
                support = rng.choice(1 << ext.n, size=1 << entropy, replace=False)
                src = FlatSource(ext.n, tuple(support.tolist()))
                worst = max(worst, strong_extractor_distance(ext, src))
            bound = leftover_bound(ext.m, entropy)
            levels.append({
                "entropy": entropy, "sources": per, "max_distance": worst,
                "bound": bound, "ok": worst <= bound + 1e-12,
            })
    ok = full_rank and all(lv["ok"] for lv in levels)
    return ({"map_id": ext.map_id, "n": ext.n, "m": ext.m, "seeds": n_seeds,
             "full_rank": full_rank, "levels": levels, "ok": ok}, ok,
            f"rank {'full' if full_rank else 'DEFICIENT'} on {n_seeds} seeds, "
            f"{len(levels)} entropy levels")


def _prg_spec(cfg: Config) -> tuple:
    """(prg, dimension, alphabet, its ``prg`` node) of a prg-test or
    reduction-test config."""
    dim, alpha = cfg.int("dimension", lo=1), cfg.int("alphabet")
    node = cfg.obj("prg")
    return _lib("prg_from_config")(node, dim, alpha), dim, alpha, node


def _component_prg(params: dict, threads: int) -> tuple[dict, bool, str]:
    from .rectprg import FullIndependencePRG, threshold_errors

    with reading(params) as cfg:
        prg, dim, alpha, node = _prg_spec(cfg)
        # the claim this run audits; full independence has error 0 by definition
        claimed = node.number("claimed_error", None, lo=0)
        if isinstance(prg, FullIndependencePRG):
            if claimed is not None:
                raise _CliError("full independence has error 0 by definition")
            claimed = 0.0
        mode, samples, run_seed = _sampling(cfg)
        thetas = list(cfg.ints("thresholds", range(alpha + 1), lo=0))
    try:
        errors = threshold_errors(prg, thetas, samples=samples, run_seed=run_seed,
                                  threads=threads)
    except SeedSpaceTooLarge as exc:
        raise _CliError(f'{exc}; rerun with "mode": "mc" and "samples": <n> in the config')
    rows = [{"theta": t, "error": err} for t, err in zip(thetas, errors)]
    max_err = max((r["error"] for r in rows), default=0.0)
    ok = claimed is None or max_err <= claimed + 1e-12
    return ({"prg_id": prg.prg_id, "dimension": dim, "alphabet": alpha,
             "mode": mode, "samples": samples, "run_seed": run_seed or 0,
             "thresholds": rows, "max_error": max_err,
             "claimed_error": claimed, "ok": ok}, ok,
            f"max threshold error {max_err} over {len(rows)} rectangles"
            + (f", claimed {claimed}" if claimed is not None else ""))


def _component_kwise(params: dict, threads: int) -> tuple[dict, bool, str]:
    from . import verify

    with reading(params) as cfg:
        # at t = b the b coordinates are already fully independent
        b = cfg.int("b", lo=1)
        t, M = cfg.int("t", lo=1, hi=b), cfg.int("M")
        thetas = cfg.ints("thetas", range(M + 1), lo=0)
    rows = [r.to_json() for r in verify.check_twise_tails(t, b, thetas, M)]
    ok = all(r["within"] for r in rows)
    return ({"t": t, "b": b, "M": M, "rows": rows, "ok": ok}, ok,
            f"{len(rows)} thetas within the truncation bound, t={t} b={b} M={M}")


def _component_loads(params: dict, threads: int) -> tuple[dict, bool, str]:
    from . import verify

    with reading(params) as cfg:
        ell = cfg.int("ell", lo=1)
        X, Y, regime = cfg.ints("X"), cfg.ints("Y"), cfg.string("regime")
        if cfg.is_object("allocation"):
            alloc = cfg.obj("allocation")
            alloc.string("kind", choices=("twise",))
            N = cfg.int("N", lo=1)
            g = _lib("TWiseFamily")(alloc.int("t", lo=1, hi=N), N, ell)
        else:
            g = cfg.string("allocation", "uniform")
        # no bucket holds more than the |X| points, so a load threshold
        # C_g past |X| is never reached; C sits below C_g on the ladder
        C_g = cfg.int("C_g", 2, lo=2, hi=len(X))
        constants = {"C": cfg.int("C", 1, lo=1, hi=C_g - 1), "C_g": C_g,
                     "t": cfg.int("t", None, lo=1)}
    rep = verify.check_load_lemma(g, X, Y, ell, regime, **constants)
    ok = rep.asserted_ok()
    return ({**rep.to_json(), "asserted_ok": ok}, ok,
            f"{rep.regime} regime, bad frequency {rep.bad_frequency}, "
            f"chain {rep.chain.tag}, closed form {rep.closed_form.tag}")


def _component_reduction(params: dict, threads: int) -> tuple[dict, bool, str]:
    from . import verify

    with reading(params) as cfg:
        prg = _prg_spec(cfg)[0]
        X, Y = cfg.ints("X"), cfg.ints("Y")
    rep = verify.check_reduction(prg, X, Y, threads)
    ok = rep.asserted_ok()
    return ({**rep.to_json(), "asserted_ok": ok}, ok,
            f"delta {rep.delta}, additive {rep.additive_error} <= {rep.additive_bound}, "
            f"mult {rep.mult_error} <= {rep.mult_bound}")


_COMPONENT_RUNNERS = {
    "extractor": _component_extractor,
    "prg": _component_prg,
    "kwise": _component_kwise,
    "loads": _component_loads,
    "reduction": _component_reduction,
}


def _run_component(kind: str, params: dict, out: Path | None, threads: int) -> int:
    """Run one oracle, write its ``<kind>_report.json`` under ``out`` when
    given and print its verdict line; returns the exit status."""
    report, ok, detail = _COMPONENT_RUNNERS[kind](params, threads)
    if out is not None:
        write_json(out / f"{kind}_report.json", report)
    print(f"{kind}-test: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if ok else 1


def run_component_tests(kind: str, params: dict, out_dir=None) -> int:
    """Run one component oracle suite programmatically.

    ``kind`` selects the oracle family; ``params`` has the same shape as
    the matching subcommand's JSON config (the ``kwise`` tail-estimate
    table has no subcommand of its own and is reachable only here).
    Reports are written under ``out_dir`` when given.  Returns the exit
    status: 0 every asserted check passed, 1 otherwise.  Malformed
    params raise ValueError; module errors propagate as-is.
    """
    if kind not in _COMPONENT_RUNNERS:
        raise ValueError(
            f"unknown component kind {kind!r}; "
            f"known: {', '.join(sorted(_COMPONENT_RUNNERS))}"
        )
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    return _run_component(kind, dict(params), out, 1)


def _cmd_component(args) -> int:
    """The ``<kind>-test`` subcommands: that kind's oracle on the config file."""
    return _run_component(args.command.removesuffix("-test"), _config(args),
                          _out_dir(args), getattr(args, "threads", 1))


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser():
    import argparse  # after the subcommand's modules (see _MODULES)

    parser = argparse.ArgumentParser(
        prog="minwise-lab",
        description="construct bucketed (k-)min-wise families and run the "
                    "verification oracles over config-driven corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext, *, threads=False):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", help="directory for report artifacts")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes: exhaustive and monte-carlo "
                                "scans split their seed blocks across this "
                                "many, with byte-identical output")
        p.set_defaults(handler=handler)
        return p

    c = add("construct", _cmd_construct, "build a family and inspect or evaluate it")
    c.add_argument("--seed", help="packed seed (decimal or 0x hex)")
    c.add_argument("--eval", type=int, help="domain point to hash with --seed")

    add("measure", _cmd_measure,
        "measure min-wise error over a query corpus", threads=True)
    add("extractor-test", _cmd_component,
        "surjectivity and leftover-hash distance checks")
    add("prg-test", _cmd_component,
        "threshold-rectangle error scan for a PRG", threads=True)
    add("loads-test", _cmd_component,
        "allocation load frequencies vs the regime bounds")
    add("reduction-test", _cmd_component,
        "min-wise error vs rectangle error, both exact", threads=True)
    return parser


# glibc mallopt parameters and the values the CLI sets them to.  Arrays
# below MMAP_THRESHOLD come from the heap, so a seed block's freed
# temporaries serve the next block instead of being unmapped and faulted
# in again; 32 MiB is the largest threshold glibc accepts on 64-bit.  The
# trim threshold sits above what one 2^16-seed block frees at the top of
# the heap (2^17-seed blocks outgrew it: 522k minor faults on the desk
# measure, against 6.4k at 2^16), and a few MiB is enough for that: larger
# freed tops, up to the mmap threshold, still go back to the OS.  No
# oracle command keeps a large table any more, so 8 and 64 MiB give the
# same peak RSS (31-39 MB) on every benchmark command.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 8 << 20


def _bound_allocator() -> None:
    """Set the process's malloc thresholds; forked scan workers inherit them.

    Only speed depends on it.  Where the C library has no ``mallopt``
    (macOS, musl) nothing is set and the output bytes are the same.
    """
    # imported here so that importing the CLI does not pay for ctypes
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


# The library modules that each subcommand's handler imports.  main loads
# them before argparse, which, imported first, leaves 0.3-0.6 MB more of the
# heap resident through the run (the desk measure and extractor-test, 2
# vCPUs, Python 3.11).
_MODULES = {
    "construct": ("construction",),
    "measure": ("construction", "verify"),
    "extractor-test": ("extractor",),
    "prg-test": ("rectprg",),
    "loads-test": ("verify",),
    "reduction-test": ("verify",),
}


def main(argv=None) -> int:
    """Run one subcommand; ``argv`` defaults to the process's arguments.

    The subcommand's modules are imported first.  Run as the program
    (``argv`` None), the CLI keeps OpenBLAS to one thread before numpy
    loads, unless OPENBLAS_NUM_THREADS is set: no code here calls BLAS,
    and the pool's idle threads spin on the CPU.  Once the arguments are
    parsed it moves every object that start-up made (imports, mostly
    numpy's and the subcommand's modules) into the collector's permanent
    generation.  They live until exit anyway, so no collection during the
    run, in a forked scan worker or at interpreter shutdown walks them
    again.  A caller that passes ``argv`` (a test, a tracing wrapper)
    keeps its environment and a collectable heap.
    """
    program = argv is None
    if program:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    words = sys.argv[1:] if program else argv
    for module in _MODULES.get(words[0] if words else "", ()):
        importlib.import_module(f".{module}", __package__)
    _bound_allocator()
    args = _build_parser().parse_args(argv)
    if program:
        gc.freeze()
    # a contract violation or a bad config exits 2 (_read_json and
    # _out_dir raise _CliError, the config reader ParamViolation); anything
    # else is a bug and propagates with its traceback
    try:
        return args.handler(args)
    except (MinwiseLabError, _CliError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
