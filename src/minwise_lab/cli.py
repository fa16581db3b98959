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

from .config import Config, reading, within, write_json
from .errors import EXHAUSTIVE_SEED_BITS, InvalidArgument, MinwiseLabError, SeedSpaceTooLarge

SUMMARY_THRESHOLD_KEYS = ("max_mult_err_uniform", "median_mult_err_uniform",
                          "max_mult_err_fair", "max_tie_mass")
# what a config error adds when an exhaustive scan's seed space is over budget
MC_HINT = '; rerun with "mode": "mc" and "samples": <n> in the config'


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


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgument(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise InvalidArgument(f"{path}: top-level config must be a JSON object")
    return cfg


def _config(args) -> dict:
    """The config file's object, once --threads is checked."""
    if getattr(args, "threads", 1) < 1:
        raise InvalidArgument("--threads must be >= 1")
    return _read_json(args.config)


def _philox_key(cfg: Config, key: str, default: int | None = 0) -> int | None:
    """A key of the program's Philox4x64-10 stream (minwise_lab.philox),
    which takes [0, 2^128)."""
    return cfg.int(key, default, lo=0, hi=(1 << 128) - 1)


def _sampling(cfg: Config) -> tuple[str, int | None, int | None]:
    """(mode, samples, run_seed) of a measure or prg-test config, the last
    two None in an exhaustive run.  It draws nothing, so a sample count or
    run seed given to it is refused rather than reported."""
    mode = cfg.string("mode", "exhaustive")
    if mode not in ("exhaustive", "mc"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    samples, run_seed = cfg.int("samples", None, lo=1), _philox_key(cfg, "run_seed", None)
    if mode == "mc" and samples is None:
        raise InvalidArgument("monte-carlo mode needs a positive sample count")
    if mode == "exhaustive":
        for key, value in (("samples", samples), ("run_seed", run_seed)):
            if value is not None:
                raise InvalidArgument(f"{key} applies only to Monte-Carlo runs; an "
                                     'exhaustive run enumerates every seed (set "mode": "mc")')
    return mode, samples, run_seed


def _out_dir(args) -> Path | None:
    if not getattr(args, "out_dir", None):
        return None
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidArgument(f"cannot create output directory {out}: {exc}") from exc
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
        raise InvalidArgument("--eval requires --seed")
    if args.seed is not None:
        try:
            seed = int(args.seed, 0)
        except ValueError:
            raise InvalidArgument(f"seed {args.seed!r} is not an integer literal")
        if not 0 <= seed < family.seed_space:
            raise InvalidArgument(
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
    from .philox import Philox

    corpus = (cfg if isinstance(cfg, Config) else Config(cfg)).obj("corpus", {})
    stream = Philox(_philox_key(corpus, "seed"))
    queries = []
    for spec in corpus.objects("queries", []):
        kind = spec.string("kind", choices=("full_domain", "intervals", "random_subsets"))
        if kind == "full_domain":
            X = list(range(1, N + 1))
            if len(X) <= k:
                raise InvalidArgument(f"full_domain needs |X| > k={k}")
            queries += [(X, list(Y)) for Y in itertools.combinations(X, k)]
        elif kind == "intervals":
            for size in spec.ints("sizes", []):
                if size <= k or size > N:
                    raise InvalidArgument(f"interval size {size} outside (k, N]")
                for lo in range(1, N - size + 2):
                    X = list(range(lo, lo + size))
                    queries += [(X, list(Y)) for Y in itertools.combinations(X, k)]
        else:
            size = spec.int("size", 0)
            if size <= k or size > N:
                raise InvalidArgument(f"random subset size {size} outside (k, N]")
            # draws past the number of distinct (X, Y) pairs only repeat them
            count = spec.int("count", 0, lo=0, hi=math.comb(N, size) * math.comb(size, k))
            for _ in range(count):
                X = sorted(v + 1 for v in stream.choice(N, size))
                Y = sorted(X[i] for i in stream.choice(size, k))
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
        raise InvalidArgument("measure needs --out-dir for its CSV/JSON artifacts")
    try:
        reports = verify.measure_corpus(family, queries, samples=samples,
                                        run_seed=run_seed, threads=args.threads)
    except SeedSpaceTooLarge as exc:
        raise InvalidArgument(f"{exc}{MC_HINT}")

    verify.write_reports_csv(out / "measure.csv", reports)
    exact = verify.exact_summary(reports)
    summary = {name: value if value is None or name == "queries" else float(value)
               for name, value in exact.items()}
    checks = [{"name": name, "limit": limit, "value": summary[name],
               "ok": exact[name] is None or within(exact[name], limit)}
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
    from .extractor import (FlatSource, leftover_bound, spans_full_rank,
                            strong_extractor_distance)
    from .philox import Philox

    with reading(params) as cfg:
        n, m = cfg.int("n", lo=1), cfg.int("m", lo=0)
        # the span table and each flat source's counts have 2^(d+m) cells
        if n - 1 + m > EXHAUSTIVE_SEED_BITS:
            raise InvalidArgument(
                f"{n - 1}-bit seeds x {m}-bit outputs: 2^{n - 1 + m} (seed, output) "
                f"cells exceed the 2^{EXHAUSTIVE_SEED_BITS} exhaustive budget"
            )
        ext = _lib("LeftoverHash")(n, m)
        fs = cfg.obj("flat_sources", None)
        if fs is not None:
            stream = Philox(_philox_key(fs, "rng_seed"))
            # and the sources of one level count theirs under the same budget
            per = fs.int("per_level", 50, lo=0, hi=1 << (EXHAUSTIVE_SEED_BITS - (n - 1 + m)))
    n_seeds = 1 << ext.d
    full_rank = bool(spans_full_rank(ext.span_table()).all())

    levels = []
    if fs is not None:
        for entropy in range(ext.m + 1, ext.n):
            worst = 0
            for _ in range(per):
                support = stream.choice(1 << ext.n, 1 << entropy)
                src = FlatSource(ext.n, tuple(support))
                worst = max(worst, strong_extractor_distance(ext, src))
            levels.append({
                "entropy": entropy, "sources": per, "max_distance": float(worst),
                "bound": leftover_bound(ext.m, entropy),
                "ok": within(worst, 2, 2, (ext.m - entropy) / 2),
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
                raise InvalidArgument("full independence has error 0 by definition")
            claimed = 0.0
        mode, samples, run_seed = _sampling(cfg)
        thetas = list(cfg.ints("thresholds", range(alpha + 1), lo=0))
    try:
        errors = threshold_errors(prg, thetas, samples=samples, run_seed=run_seed,
                                  threads=threads)
    except SeedSpaceTooLarge as exc:
        raise InvalidArgument(f"{exc}{MC_HINT}")
    rows = [{"theta": t, "error": float(err)} for t, err in zip(thetas, errors)]
    max_err = max(errors, default=0)
    ok = claimed is None or within(max_err, claimed)
    return ({"prg_id": prg.prg_id, "dimension": dim, "alphabet": alpha,
             "mode": mode, "samples": samples, "run_seed": run_seed or 0,
             "thresholds": rows, "max_error": float(max_err),
             "claimed_error": claimed, "ok": ok}, ok,
            f"max threshold error {float(max_err)} over {len(rows)} rectangles"
            + (f", claimed {claimed}" if claimed is not None else ""))


def _component_kwise(params: dict, threads: int) -> tuple[dict, bool, str]:
    from . import verify

    with reading(params) as cfg:
        # at t = b the b coordinates are already fully independent; a b or M
        # past 2^24 needs a field of more seed bits than the budget, and is
        # refused before its b coordinates and M + 1 thresholds are listed
        b = cfg.int("b", lo=1, hi=1 << EXHAUSTIVE_SEED_BITS)
        t, M = cfg.int("t", lo=1, hi=b), cfg.int("M", hi=1 << EXHAUSTIVE_SEED_BITS)
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
        C = cfg.int("C", 1, lo=1, hi=C_g - 1)
    rep = verify.check_load_lemma(g, X, Y, ell, regime, C, C_g)
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


def _cmd_component(args) -> int:
    """A ``<kind>-test`` subcommand: its oracle's runner on the config file.
    Writes ``<kind>_report.json`` under --out-dir when given, prints the
    verdict line and returns the exit status."""
    params, out = _config(args), _out_dir(args)
    report, ok, detail = _SUBCOMMANDS[args.command][0](params, getattr(args, "threads", 1))
    if out is not None:
        write_json(out / f"{args.command.removesuffix('-test')}_report.json", report)
    print(f"{args.command}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if ok else 1


# Each subcommand once: (its handler, or a -test subcommand's runner, which
# _cmd_component calls; its help; whether it takes --threads; the library
# modules it imports).  main loads those modules before argparse, which,
# imported first, leaves 0.3-0.6 MB more of the heap resident through the
# run (the desk measure and extractor-test, 2 vCPUs, Python 3.11).
_SUBCOMMANDS = {
    "construct": (_cmd_construct, "build a family and inspect or evaluate it",
                  False, ("construction", "philox")),
    "measure": (_cmd_measure, "measure min-wise error over a query corpus",
                True, ("construction", "philox", "verify")),
    "extractor-test": (_component_extractor, "surjectivity and leftover-hash distance checks",
                       False, ("extractor", "philox")),
    "prg-test": (_component_prg, "threshold-rectangle error scan for a PRG",
                 True, ("rectprg",)),
    "kwise-test": (_component_kwise, "exact t-wise minimum tails vs the truncation bound",
                   False, ("verify",)),
    "loads-test": (_component_loads, "allocation load frequencies vs the regime bounds",
                   False, ("verify",)),
    "reduction-test": (_component_reduction, "min-wise error vs rectangle error, both exact",
                       True, ("verify",)),
}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser():
    import argparse  # after the subcommand's modules (see _SUBCOMMANDS)

    parser = argparse.ArgumentParser(
        prog="minwise-lab",
        description="construct bucketed (k-)min-wise families and run the "
                    "verification oracles over config-driven corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, helptext, threads, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", help="directory for report artifacts")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes: exhaustive and monte-carlo "
                                "scans split their seed blocks across this "
                                "many, with byte-identical output")
        if name == "construct":
            p.add_argument("--seed", help="packed seed (decimal or 0x hex)")
            p.add_argument("--eval", type=int, help="domain point to hash with --seed")
        p.set_defaults(handler=_cmd_component if name.endswith("-test") else run)
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
    for module in _SUBCOMMANDS.get(words[0] if words else "", ((),))[-1]:
        importlib.import_module(f".{module}", __package__)
    _bound_allocator()
    args = _build_parser().parse_args(argv)
    if program:
        gc.freeze()
    # a contract violation or a bad config exits 2; anything else is a bug
    # and propagates with its traceback
    try:
        return args.handler(args)
    except MinwiseLabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
