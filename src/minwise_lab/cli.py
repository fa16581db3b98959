"""Batch experiment runner for the hash-family constructions and oracles.

Every run is driven by a JSON config file so results are reproducible
artifacts: identical config plus identical run seed gives byte-identical
CSV/JSON outputs.  Exit codes: 0 all checks passed, 1 a measured check
failed, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import verify
from .construction import family_from_config, prg_from_config
from .errors import MinwiseLabError, SeedSpaceTooLarge
from .extractor import FlatSource, LeftoverHash, strong_extractor_distance
from .gf2 import rank
from .kwise import TWiseFamily
from .rectprg import threshold_errors

SUMMARY_THRESHOLD_KEYS = (
    "max_mult_err_uniform",
    "median_mult_err_uniform",
    "max_mult_err_fair",
    "max_tie_mass",
)


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


def _out_dir(args) -> Path | None:
    if not getattr(args, "out_dir", None):
        return None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_threads(args) -> None:
    if getattr(args, "threads", 1) < 1:
        raise _CliError("--threads must be >= 1")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    cfg = _read_json(args.config)
    family = family_from_config(cfg.get("construction", cfg))
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
        verify.write_json(out / "construct.json", {
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


def _corpus_queries(cfg: dict, N: int, k: int) -> list:
    corpus = cfg.get("corpus", {})
    rng = np.random.Generator(np.random.Philox(key=int(corpus.get("seed", 0))))
    queries = []
    for spec in corpus.get("queries", []):
        kind = spec.get("kind")
        if kind == "full_domain":
            X = list(range(1, N + 1))
            if len(X) <= k:
                raise _CliError(f"full_domain needs |X| > k={k}")
            queries += [(X, list(Y)) for Y in itertools.combinations(X, k)]
        elif kind == "intervals":
            for size in spec.get("sizes", []):
                size = int(size)
                if size <= k or size > N:
                    raise _CliError(f"interval size {size} outside (k, N]")
                for lo in range(1, N - size + 2):
                    X = list(range(lo, lo + size))
                    queries += [(X, list(Y)) for Y in itertools.combinations(X, k)]
        elif kind == "random_subsets":
            size = int(spec.get("size", 0))
            if size <= k or size > N:
                raise _CliError(f"random subset size {size} outside (k, N]")
            for _ in range(int(spec.get("count", 0))):
                X = sorted(int(v) for v in rng.choice(N, size=size, replace=False) + 1)
                Y = sorted(int(v) for v in rng.choice(X, size=k, replace=False))
                queries.append((X, Y))
        else:
            raise _CliError(f"unknown corpus query kind {kind!r}")
    return queries


def _threshold_limits(thresholds: dict) -> dict:
    """The config's threshold limits by name, checked before any scan."""
    limits = {}
    for name in sorted(thresholds):
        if name not in SUMMARY_THRESHOLD_KEYS:
            raise _CliError(
                f"unknown threshold {name!r}; known: {', '.join(SUMMARY_THRESHOLD_KEYS)}"
            )
        limits[name] = float(thresholds[name])
    return limits


def _apply_thresholds(summary: dict, limits: dict) -> list[dict]:
    checks = []
    for name, limit in limits.items():
        value = summary.get(name)
        ok = value is None or value <= limit
        checks.append({"name": name, "limit": limit, "value": value, "ok": ok})
    return checks


def _cmd_measure(args) -> int:
    _check_threads(args)
    cfg = _read_json(args.config)
    if "construction" not in cfg:
        raise _CliError("measure config needs a 'construction' object")
    family = family_from_config(cfg["construction"])
    k = int(cfg["construction"].get("k", 1))
    mode = args.mode or cfg.get("mode", "exhaustive")
    if mode not in ("exhaustive", "mc"):
        raise _CliError(f"unknown mode {mode!r}")
    samples = args.samples if args.samples is not None else cfg.get("samples")
    samples = int(samples) if samples is not None else None
    run_seed = args.run_seed if args.run_seed is not None else int(cfg.get("run_seed", 0))

    queries = _corpus_queries(cfg, family.domain_size, k)
    limits = _threshold_limits(cfg.get("thresholds", {}))
    out = _out_dir(args)
    if out is None:
        raise _CliError("measure needs --out-dir for its CSV/JSON artifacts")
    try:
        reports = verify.measure_corpus(family, queries, mode=mode, samples=samples,
                                        run_seed=run_seed, threads=args.threads)
    except SeedSpaceTooLarge as exc:
        raise _CliError(f"{exc}; rerun with --mode mc --samples <n>")

    verify.write_reports_csv(out / "measure.csv", reports)
    summary = verify.summarize_reports(reports)
    checks = _apply_thresholds(summary, limits)
    verify.write_json(out / "summary.json", {
        "family_id": family.family_id,
        "k": k,
        "mode": mode,
        "samples": samples,
        "run_seed": run_seed,
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
# component tests
# ---------------------------------------------------------------------------


def _component_extractor(cfg: dict, out: Path | None) -> int:
    if "n" not in cfg or "m" not in cfg:
        raise _CliError("extractor-test config needs source width n and output m")
    ext = LeftoverHash(int(cfg["n"]), int(cfg["m"]),
                       claimed_entropy_k=cfg.get("claimed_entropy_k"))
    if ext.d > 16:
        raise _CliError(f"{ext.d}-bit seed space too large to enumerate")
    n_seeds = 1 << ext.d
    full_rank = all(rank(ext.matrix_of(s)) == ext.m for s in range(n_seeds))

    levels = []
    fs = cfg.get("flat_sources")
    if fs:
        rng = np.random.Generator(np.random.Philox(key=int(fs.get("rng_seed", 0))))
        per = int(fs.get("per_level", 50))
        for entropy in range(ext.m + 1, ext.n):
            worst = 0.0
            for _ in range(per):
                support = rng.choice(1 << ext.n, size=1 << entropy, replace=False)
                src = FlatSource(ext.n, tuple(int(v) for v in sorted(support)))
                worst = max(worst, strong_extractor_distance(ext, src))
            bound = 2.0 * 2.0 ** ((ext.m - entropy) / 2)
            levels.append({
                "entropy": entropy, "sources": per, "max_distance": worst,
                "bound": bound, "ok": worst <= bound + 1e-12,
            })
    ok = full_rank and all(lv["ok"] for lv in levels)
    if out is not None:
        verify.write_json(out / "extractor_report.json", {
            "map_id": ext.map_id, "n": ext.n, "m": ext.m, "seeds": n_seeds,
            "full_rank": full_rank, "levels": levels, "ok": ok,
        })
    print(
        f"extractor-test: {'PASS' if ok else 'FAIL'} "
        f"(rank {'full' if full_rank else 'DEFICIENT'} on {n_seeds} seeds, "
        f"{len(levels)} entropy levels)"
    )
    return 0 if ok else 1


def _component_prg(cfg: dict, out: Path | None, threads: int = 1) -> int:
    for key in ("prg", "dimension", "alphabet"):
        if key not in cfg:
            raise _CliError(f"prg-test config needs {key!r}")
    dim, alpha = int(cfg["dimension"]), int(cfg["alphabet"])
    prg = prg_from_config(cfg["prg"], dim, alpha)
    mode = cfg.get("mode", "exhaustive")
    samples = int(cfg["samples"]) if cfg.get("samples") is not None else None
    run_seed = int(cfg.get("run_seed", 0))
    thetas = [int(t) for t in cfg.get("thresholds", range(0, alpha + 1))]
    try:
        errors = threshold_errors(prg, thetas, mode, samples, run_seed, threads)
    except SeedSpaceTooLarge as exc:
        raise _CliError(f"{exc}; rerun with --mode mc --samples <n>")
    rows = [{"theta": t, "error": err} for t, err in zip(thetas, errors)]
    max_err = max((r["error"] for r in rows), default=0.0)
    claimed = getattr(prg, "claimed_error", None)
    ok = claimed is None or max_err <= claimed + 1e-12

    if out is not None:
        verify.write_json(out / "prg_report.json", {
            "prg_id": prg.prg_id, "dimension": dim, "alphabet": alpha,
            "mode": mode, "samples": samples, "run_seed": run_seed,
            "thresholds": rows, "max_error": max_err,
            "claimed_error": claimed, "ok": ok,
        })
    print(
        f"prg-test: {'PASS' if ok else 'FAIL'} "
        f"(max threshold error {max_err} over {len(rows)} rectangles"
        + (f", claimed {claimed}" if claimed is not None else "") + ")"
    )
    return 0 if ok else 1


def _component_kwise(cfg: dict, out: Path | None) -> int:
    for key in ("t", "b", "M"):
        if key not in cfg:
            raise _CliError(f"kwise test config needs {key!r}")
    t, b, M = int(cfg["t"]), int(cfg["b"]), int(cfg["M"])
    thetas = cfg.get("thetas", range(0, M + 1))
    rows = [verify.check_twise_tail(t, b, int(theta), M).to_json()
            for theta in thetas]
    ok = all(r["within"] for r in rows)
    if out is not None:
        verify.write_json(out / "kwise_report.json",
                          {"t": t, "b": b, "M": M, "rows": rows, "ok": ok})
    print(
        f"kwise-test: {'PASS' if ok else 'FAIL'} "
        f"({len(rows)} thetas within the truncation bound, t={t} b={b} M={M})"
    )
    return 0 if ok else 1


def _component_loads(cfg: dict, out: Path | None) -> int:
    for key in ("ell", "X", "Y", "regime"):
        if key not in cfg:
            raise _CliError(f"loads-test config needs {key!r}")
    ell = int(cfg["ell"])
    alloc = cfg.get("allocation", "uniform")
    if alloc == "uniform":
        g = "uniform"
    elif isinstance(alloc, dict) and alloc.get("kind") == "twise":
        if "N" not in cfg:
            raise _CliError("loads-test with a twise allocation needs the domain N")
        g = TWiseFamily(int(alloc["t"]), int(cfg["N"]), ell)
    else:
        raise _CliError(f"unknown allocation {alloc!r}")
    rep = verify.check_load_lemma(
        g, cfg["X"], cfg["Y"], ell, cfg["regime"],
        C=int(cfg.get("C", 1)), C_g=int(cfg.get("C_g", 2)),
        t=int(cfg["t"]) if "t" in cfg else None,
        independence=int(cfg["independence"]) if "independence" in cfg else None,
    )
    ok = rep.asserted_ok()
    if out is not None:
        verify.write_json(out / "loads_report.json",
                          {**rep.to_json(), "asserted_ok": ok})
    print(
        f"loads-test: {'PASS' if ok else 'FAIL'} "
        f"({rep.regime} regime, bad frequency {rep.bad_frequency}, "
        f"chain {rep.chain.tag}, closed form {rep.closed_form.tag})"
    )
    return 0 if ok else 1


def _component_reduction(cfg: dict, out: Path | None, threads: int = 1) -> int:
    for key in ("prg", "dimension", "alphabet", "X", "Y"):
        if key not in cfg:
            raise _CliError(f"reduction-test config needs {key!r}")
    prg = prg_from_config(cfg["prg"], int(cfg["dimension"]), int(cfg["alphabet"]))
    rep = verify.check_reduction(prg, cfg["X"], cfg["Y"], threads)
    ok = rep.asserted_ok()
    if out is not None:
        verify.write_json(out / "reduction_report.json",
                          {**rep.to_json(), "asserted_ok": ok})
    print(
        f"reduction-test: {'PASS' if ok else 'FAIL'} "
        f"(delta {rep.delta}, additive {rep.additive_error} <= {rep.additive_bound}, "
        f"mult {rep.mult_error} <= {rep.mult_bound})"
    )
    return 0 if ok else 1


_COMPONENT_RUNNERS = {
    "extractor": _component_extractor,
    "prg": _component_prg,
    "kwise": _component_kwise,
    "loads": _component_loads,
    "reduction": _component_reduction,
}


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
    return _COMPONENT_RUNNERS[kind](dict(params), out)


def _cmd_extractor_test(args) -> int:
    return _component_extractor(_read_json(args.config), _out_dir(args))


def _cmd_prg_test(args) -> int:
    _check_threads(args)
    cfg = _read_json(args.config)
    if args.mode:
        cfg["mode"] = args.mode
    if args.samples is not None:
        cfg["samples"] = args.samples
    if args.run_seed is not None:
        cfg["run_seed"] = args.run_seed
    return _component_prg(cfg, _out_dir(args), args.threads)


def _cmd_loads_test(args) -> int:
    return _component_loads(_read_json(args.config), _out_dir(args))


def _cmd_reduction_test(args) -> int:
    _check_threads(args)
    return _component_reduction(_read_json(args.config), _out_dir(args), args.threads)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minwise-lab",
        description="construct bucketed (k-)min-wise families and run the "
                    "verification oracles over config-driven corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext, *, sampling=False, threads=False):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", help="directory for report artifacts")
        if sampling:
            p.add_argument("--mode", choices=("exhaustive", "mc"),
                           help="override the config's verification mode")
            p.add_argument("--samples", type=int,
                           help="monte-carlo sample count")
            p.add_argument("--run-seed", type=int,
                           help="counter-based RNG key for monte-carlo runs")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes: exhaustive scans split their "
                                "seed blocks across this many, with "
                                "byte-identical output")
        p.set_defaults(handler=handler)
        return p

    c = add("construct", _cmd_construct, "build a family and inspect or evaluate it")
    c.add_argument("--seed", help="packed seed (decimal or 0x hex)")
    c.add_argument("--eval", type=int, help="domain point to hash with --seed")

    add("measure", _cmd_measure,
        "measure min-wise error over a query corpus", sampling=True, threads=True)
    add("extractor-test", _cmd_extractor_test,
        "surjectivity and leftover-hash distance checks")
    add("prg-test", _cmd_prg_test,
        "threshold-rectangle error scan for a PRG", sampling=True, threads=True)
    add("loads-test", _cmd_loads_test,
        "allocation load frequencies vs the regime bounds")
    add("reduction-test", _cmd_reduction_test,
        "min-wise error vs rectangle error, both exact", threads=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (MinwiseLabError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
