"""Run one minwise-lab CLI command with spans around each layer's entry points.

Usage: python3 perfbench/trace_cli.py SPANS_JSON -- CLI_ARGS...

The library is left untouched: before ``cli.main`` runs, every public
entry point is replaced by a timing wrapper where callers look it up
(``mul_block`` is bound separately in ``gf2``, ``kwise``, ``extractor``
and ``rectprg``; methods are patched on their class).  Spans stay in
memory and are written to SPANS_JSON when the command ends.  A target
that no longer exists is skipped and listed under ``missing`` instead
of failing the run.  The exit status is the CLI's own.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

T_START = time.perf_counter()

import numpy as np  # noqa: E402

from minwise_lab import cli, construction, extractor, gf2, kwise, rectprg, verify  # noqa: E402

T_IMPORTED = time.perf_counter()

# verify oracles whose direct family evaluations count as point evaluations
SCAN_SPANS = ("verify.measure_minwise", "verify.scan_loads")


def _chunk_key(seeds) -> str:
    """Identity of a seed block: its first seed (or row) and its length."""
    if len(seeds) == 0:
        return "empty"
    first = seeds[0]
    first = tuple(int(v) for v in first) if np.ndim(first) else int(first)
    return f"{first}/{len(seeds)}"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, attrs]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.point_evals = 0
        self.distinct_points: set = set()    # (family id, chunk key, x)
        self.scan_chunks: dict = {}          # (scan span, chunk key) -> seeds

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, -1, {}])

    def wrap(self, name: str, fn, on_enter=None, on_exit=None):
        tracer = self
        sig = inspect.signature(fn) if on_enter is not None else None

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, {}]
            if on_enter is not None:
                on_enter(span, parent, sig.bind(*args, **kwargs).arguments)
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if on_exit is not None:
                on_exit(span, result)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_traced = True
        return traced

    def patch(self, module, path: str, name: str, on_enter=None, on_exit=None) -> None:
        """Wrap ``module.path`` (``attr`` or ``Class.attr``) in place."""
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(f"{module.__name__}.{path}")
        elif not getattr(fn, "perfbench_traced", False):
            setattr(owner, attr, self.wrap(name, fn, on_enter, on_exit))

    # -- per-call accounting hooks --------------------------------------

    @staticmethod
    def _mul_block_enter(binding: str):
        def enter(span, parent, arg):
            span[4] = {"degree": int(arg["ctx"].degree), "binding": binding,
                       "elems": int(np.broadcast(arg["a"], arg["b"]).size)}
        return enter

    def _family_eval_enter(self, span, parent, arg):
        # a family evaluation called straight from a verify scan is one
        # point evaluation of that scan
        if parent < 0 or self.spans[parent][0] not in SCAN_SPANS:
            return
        key = _chunk_key(arg["seeds"])
        self.point_evals += 1
        self.distinct_points.add((id(arg["self"]), key, int(arg["x"])))
        self.scan_chunks[(parent, key)] = len(arg["seeds"])

    @staticmethod
    def _rect_enter(span, parent, arg):
        span[4] = {"active": len(arg["rect"].active_coords()), "chunk_calls": {}}

    def _coord_enter(self, span, parent, arg):
        if parent >= 0 and self.spans[parent][0] == "rectprg.rectangle_hits_exact":
            calls = self.spans[parent][4]["chunk_calls"]
            key = _chunk_key(arg["seeds"])
            calls[key] = calls.get(key, 0) + 1

    @staticmethod
    def _draw_exit(span, result):
        span[4] = {"bytes": int(getattr(result, "nbytes", 0))}

    def install(self) -> None:
        for module in (gf2, kwise, extractor, rectprg):
            binding = module.__name__.rsplit(".", 1)[-1]
            self.patch(module, "mul_block", "gf2.mul_block",
                       on_enter=self._mul_block_enter(binding))
        for module in (gf2, cli, extractor):
            self.patch(module, "rank", "gf2.rank")

        self.patch(kwise, "TWiseFamily.eval_block", "kwise.eval_block",
                   on_enter=self._family_eval_enter)
        self.patch(extractor, "LeftoverHash.extract_block", "extractor.extract_block")
        self.patch(extractor, "LeftoverHash.extract_table", "extractor.extract_table")

        self.patch(rectprg, "TWisePRG.coord_block", "rectprg.twise.coord_block",
                   on_enter=self._coord_enter)
        self.patch(rectprg, "RecursiveMixPRG.coord_block", "rectprg.recmix.coord_block",
                   on_enter=self._coord_enter)
        self.patch(rectprg, "PRGHashFamily.eval_block", "rectprg.family.eval_block",
                   on_enter=self._family_eval_enter)
        for module in (rectprg, verify):
            self.patch(module, "rectangle_hits_exact", "rectprg.rectangle_hits_exact",
                       on_enter=self._rect_enter)

        for cls in ("BucketedMinwiseFamily", "BucketedKMinwiseFamily"):
            self.patch(construction, f"{cls}.eval_block", "construction.eval_block",
                       on_enter=self._family_eval_enter)
        self.patch(construction, "SeedLayout.unpack_block", "construction.unpack_block")
        self.patch(construction, "SeedLayout.draw_block", "construction.draw_block",
                   on_exit=self._draw_exit)

        self.patch(verify, "measure_minwise", "verify.measure_minwise")
        self.patch(verify, "_scan_loads", "verify.scan_loads")
        self.patch(verify, "check_reduction", "verify.check_reduction")

        for attr in ("_read_json", "family_from_config", "prg_from_config",
                     "LeftoverHash", "TWiseFamily"):
            self.patch(cli, attr, "cli.setup")
        for attr in ("write_reports_csv", "write_json"):
            self.patch(verify, attr, "cli.write")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "missing": self.missing,
                "point_evals": self.point_evals,
                "distinct_points": len(self.distinct_points),
                "chunks": len(self.scan_chunks),
                "seeds_scanned": sum(self.scan_chunks.values()),
            }, fh)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.record("cli.setup", T_START, T_IMPORTED)
    tracer.install()
    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
