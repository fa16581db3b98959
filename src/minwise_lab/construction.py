"""Bucketed (k-)min-wise hash families with explicit, bit-exact seed layouts.

Both families share one skeleton: a bounded-independence allocation g
throws points into ell buckets, a rectangle PRG stretches its seed into
one short extractor seed per bucket, and a single shared source word w
is extracted once per bucket to pick that bucket's inner function.
Evaluation is lazy — h(x) touches only bucket g(x)'s path.

The min-wise (k = 1) variant draws each bucket's function from the
direct sum of a small t'-wise family and a second rectangle PRG; the
k-min-wise variant is itself a direct sum: the skeleton with the PRG
output alone per bucket, plus one global (C_e+1)k-wise overlay.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import Config, reading
from .errors import InvalidArgument
from .extractor import LeftoverHash
from .kwise import (
    POINT_TABLE_BYTES,
    SCAN_CHUNK_BITS,
    DirectSumFamily,
    SeededFamily,
    SeedLayout,
    TWiseFamily,
    seed_runs,
)
from .rectprg import RectanglePRG, prg_from_config


def _is_pow2(v: int) -> bool:
    return v >= 1 and v & (v - 1) == 0


# Seed bits one t-wise part of a construction may take.  A seed block
# holds each of its words as a column of at least a byte, so a 2^14-row
# Monte-Carlo count slice of a part this wide takes at least 8 MiB; the
# widest part of a shipped or benchmark config takes 40 bits.
PART_SEED_BITS = 1 << 12


@dataclass(frozen=True)
class ConstructionParams:
    """Shared parameter block: sizes, bucket count, and the constant ladder.

    The constants must satisfy C_e > C_s > C_g > C >= 1, and k is at most
    the polylog cap round(log2 N)^2; all derived independence degrees and
    design widths use ceilings so every width is a positive integer.
    ``t`` is the free knob the target error 2^(-C*t) is written in;
    desk-scale configs set it directly.
    """

    N: int
    M: int
    k: int = 1
    ell: int = 1
    t: int = 1
    C: int = 1
    C_g: int = 2
    C_s: int = 3
    C_e: int = 4

    def __post_init__(self) -> None:
        if self.N < 1:
            raise InvalidArgument("domain size N must be >= 1")
        if not _is_pow2(self.M) or self.M < 2:
            raise InvalidArgument("alphabet M must be a power of two >= 2")
        if not _is_pow2(self.ell):
            raise InvalidArgument("bucket count ell must be a power of two")
        if self.t < 1:
            raise InvalidArgument("t must be >= 1")
        if not (self.C_e > self.C_s > self.C_g > self.C >= 1):
            raise InvalidArgument(
                f"constants must satisfy C_e > C_s > C_g > C >= 1, got "
                f"C_e={self.C_e} C_s={self.C_s} C_g={self.C_g} C={self.C}"
            )
        if not 1 <= self.k <= self.N:
            raise InvalidArgument(f"order k={self.k} outside [1, N={self.N}]")
        cap = max(1, round(math.log2(self.N))) ** 2
        if self.k > cap:
            raise InvalidArgument(f"order k={self.k} above the polylog cap {cap}")
        # the overlay's (C_e + 1)k words outnumber the inner family's
        # ceil(0.1 C_s) + 1 over the same field; g's field is max(N, ell)'s
        for key, part, words, size in (
                ("C_e", "overlay", (self.C_e + 1) * self.k, max(self.N, self.M)),
                ("C_g", "allocation", self.C_g * self.k, max(self.N, self.ell))):
            n = max(1, (size - 1).bit_length())
            if words * n > PART_SEED_BITS:
                raise InvalidArgument(
                    f"{key}={getattr(self, key)}: the {part}'s {words} seed words over "
                    f"GF(2^{n}) take {words * n} bits, past the {PART_SEED_BITS}-bit limit")

    @property
    def allocation_independence(self) -> int:
        return self.C_g * self.k

    @property
    def inner_independence(self) -> int:
        """Independence degree of the per-bucket inner family (k = 1)."""
        return math.ceil(0.1 * self.C_s) + 1

    @property
    def overlay_independence(self) -> int:
        """Independence degree of the global overlay family (k >= 1)."""
        return (self.C_e + 1) * self.k


class _SingleBucket(SeededFamily):
    """The ell = 1 allocation: everything lands in bucket 1, zero seed bits."""

    def __init__(self, domain_size: int) -> None:
        self.domain_size = domain_size
        self.range_size = 1
        self.seed_bits = 0

    @property
    def family_id(self) -> str:
        return f"single_bucket(N={self.domain_size})"

    def eval(self, seed: int, x: int) -> int:
        self._check_seed(seed)
        self._check_x(x)
        return 1

    def bind(self, points):
        self._check_points(points)

        def block(seeds):
            def evaluate(x: int) -> np.ndarray:
                self._check_x(x)
                return np.ones(len(seeds), dtype=np.uint64)

            return evaluate

        return block


def _allocation_family(params: ConstructionParams) -> SeededFamily:
    if params.ell == 1:
        return _SingleBucket(params.N)
    return TWiseFamily(params.allocation_independence, params.N, params.ell)


class _BucketedFamily(SeededFamily):
    """The shared skeleton: allocation g, per-bucket extractor seeds from
    PRG1, and one source word w extracted at x's bucket.  h(x) is
    ``after``, a family of the extractor output z, at x: PRG2 alone here
    (the bucketed half phi of the k-min-wise family), the direct sum of
    a t-wise family and PRG2 in the min-wise family.

    Seed layout (low bits first): g-seed | prg1-seed | w, each with the
    words of what reads it (w is one word).  The low L = g-seed +
    prg1-seed bits reach z = Ext(w, s_{g(x)}) only through PRG1's
    multiplier at g(x)'s bucket, and z reaches h(x) only through
    ``after``.  So ``bind`` builds per-point tables (``_tables``): T_x,
    the after-z value for each of the 2^m outputs, and Y_x, the multiplier
    for each of the 2^L low values; g, PRG1 and ``after`` are bound as
    plans of their own.  On a block that ``kwise.seed_runs`` reads as
    whole runs of 2^L, such as an exhaustive scan block, a point with both
    tables costs one gather of Y_x through one composed row
    T_x[low_m(w * y)] per source word w; this needs
    m < n <= L <= SCAN_CHUNK_BITS.  Every other block (an array, even of
    consecutive seeds), and every other point, goes through the layers,
    which map z through T_x where it was built.  A plan of at least ell
    points computes z there for every bucket once a block, and each point
    gathers its own bucket's z; with fewer, each point extracts z at its
    own bucket.  So P bound points cost min(P, ell) extractions a block,
    from the first; the per-bucket z take ell entries a seed (32 MiB for
    a 2^16-seed block at ell = 256 with 2-byte z).  All paths give equal
    values, and the scalar ``eval`` is the reference for each.
    """

    def __init__(self, params: ConstructionParams, prg1: RectanglePRG,
                 prg2: RectanglePRG, extractor: LeftoverHash) -> None:
        if prg1.domain_size != params.ell:
            raise InvalidArgument(
                f"per-bucket seed PRG dimension {prg1.domain_size} != ell {params.ell}"
            )
        if prg1.range_size != 1 << extractor.d:
            raise InvalidArgument(
                f"per-bucket seed PRG alphabet {prg1.range_size} does not cover the "
                f"{extractor.d}-bit extractor seed"
            )
        if prg2.domain_size != params.N or prg2.range_size != params.M:
            raise InvalidArgument(
                f"inner PRG shape ({prg2.domain_size}, {prg2.range_size}) != "
                f"(N={params.N}, M={params.M})"
            )
        self.params = params
        self.g = _allocation_family(params)
        self.prg1 = prg1
        self.prg2 = prg2
        self.extractor = extractor
        self.after = prg2
        self.layout = SeedLayout.build([
            ("g-seed", self.g.seed_columns()),
            ("prg1-seed", prg1.seed_columns()),
            ("w", (extractor.n,)),
        ])
        self.domain_size = params.N
        self.range_size = params.M
        self.seed_bits = self.layout.total_bits
        self.low_bits = self.layout.field("w").offset

    @property
    def family_id(self) -> str:
        return (f"bucketed(g={self.g.family_id},prg1={self.prg1.prg_id},"
                f"ext={self.extractor.map_id},after={self.after.family_id})")

    def seed_columns(self) -> tuple[int, ...]:
        return self.layout.words

    def eval(self, seed: int, x: int) -> int:
        """``after`` at x, on z = Ext(w, PRG1(prg1-seed)_{g(x)} - 1)."""
        self._check_seed(seed)
        self._check_x(x)
        parts = self.layout.unpack(seed)
        bucket = self.g.eval(parts["g-seed"], x)
        s = self.prg1.eval(parts["prg1-seed"], bucket) - 1
        return self.after.eval(self.extractor.extract(parts["w"], s), x)

    def _tables(self, points: list[int], g, prg1, after) -> dict:
        """x -> (T_x, Y_x or None) within POINT_TABLE_BYTES: T_x, in M's
        narrowest dtype, for the first points it fits, then Y_x for the
        first of those that the rest fits, when n <= L <= SCAN_CHUNK_BITS.
        Y_x, PRG1's value at g(x)'s bucket for each low value, gathers PRG1's
        values at every bucket by g's at x, each on its own seeds only.
        Nothing is evaluated for a table that does not fit."""
        dtype = np.min_scalar_type(self.range_size)
        y_dtype = np.min_scalar_type(self.prg1.range_size)
        after_bytes = dtype.itemsize << self.extractor.m
        tabled = points[:POINT_TABLE_BYTES // after_bytes]
        if not tabled:
            return {}
        after_at = after(range(1 << self.extractor.m))
        tables = {x: (after_at(x).astype(dtype), None) for x in tabled}
        room = (POINT_TABLE_BYTES - len(tabled) * after_bytes) // (
            y_dtype.itemsize << self.low_bits)
        if room and self.extractor.n <= self.low_bits <= SCAN_CHUNK_BITS:
            b = self.layout.field("prg1-seed").offset
            at = prg1(range(1 << (self.low_bits - b)))
            ys = np.stack([at(i).astype(y_dtype) for i in range(1, self.params.ell + 1)])
            bucket_of = g(range(1 << b))
            tables.update((x, (tables[x][0], ys[bucket_of(x) - 1].T.reshape(-1)))
                          for x in tabled[:room])
        return tables

    def _sub_block_sources(self, seeds: np.ndarray | range):
        """w of each 2^L-seed sub-block when n <= L <= SCAN_CHUNK_BITS and
        ``seed_runs`` reads ``seeds`` as whole runs of 2^L, else None.

        Only then is a per-w row of T_x worth composing: the row has 2^n
        entries, at most one sub-block's worth.
        """
        L, n = self.low_bits, self.extractor.n
        runs = seed_runs(seeds, L) if n <= L <= SCAN_CHUNK_BITS else None
        if runs is None or runs[1] != 1 << L:
            return None
        high = np.arange(runs[0].start, runs[0].stop, dtype=np.uint64)
        return high & np.uint64((1 << n) - 1)

    def bind(self, points):
        points = self._check_points(points)
        ell = self.params.ell
        per_bucket = len(points) >= ell
        g, after = self.g.bind(points), self.after.bind(points)
        prg1 = self.prg1.bind(range(1, ell + 1) if per_bucket else ())
        tables = self._tables(points, g, prg1, after)
        z_dtype = np.min_scalar_type((1 << self.extractor.m) - 1)

        def layered(seeds):
            # the layout unpack, g's and PRG1's coefficients and the
            # per-bucket z are bound once; only what depends on z at x's
            # bucket is evaluated at every point
            parts = self.layout.unpack_block(seeds)
            bucket_of = g(parts.pop("g-seed"))
            prg1_at = prg1(parts.pop("prg1-seed"))
            w = parts.pop("w")[:, 0].astype(np.uint64)
            if per_bucket:
                # z at bucket b of seed j in cell (b - 1) * len(w) + j, so
                # each bucket's row is written whole; PRG1's value v in
                # [1, 2^d] is the multiplier y_s of seed v - 1
                bucket_z = np.empty((ell, len(w)), dtype=z_dtype)
                for b in range(ell):
                    bucket_z[b] = self.extractor.extract_block(w, ys=prg1_at(b + 1))
                bucket_z, cell = bucket_z.reshape(-1), np.arange(-len(w), 0)

            def evaluate(x: int) -> np.ndarray:
                self._check_x(x)
                if per_bucket:
                    # buckets are uint64 from Horner, narrower from tables
                    row = np.multiply(bucket_of(x), len(w), dtype=np.intp, casting="unsafe")
                    z = bucket_z.take(row + cell)
                else:
                    z = self.extractor.extract_block(w, ys=prg1_at(bucket_of(x))).astype(z_dtype)
                table = tables.get(x, (None,))[0]
                return after(z)(x) if table is None else table.take(z)

            return evaluate

        def block(seeds):
            self._check_block(seeds)
            sources = self._sub_block_sources(seeds)
            if sources is None:
                return layered(seeds)
            n = self.extractor.n
            # z for every (sub-block's w, multiplier y) pair, row-major
            row_z = self.extractor.extract_block(
                sources[:, None], ys=np.arange(1 << n, dtype=np.uint64)).view(np.int64)
            row_of = (np.arange(len(sources), dtype=np.int64) << n)[:, None]
            # bound only if some point of the block has no Y_x
            layered_block = functools.cache(lambda: layered(seeds))

            def evaluate(x: int) -> np.ndarray:
                self._check_x(x)
                table, ys = tables.get(x, (None, None))
                if ys is None:
                    return layered_block()(x)
                # one gather of Y_x through the rows T_x[low_m(w * y)]
                index = ys if len(sources) == 1 else row_of + ys
                return table.take(row_z).take(index).reshape(-1)

            return evaluate

        return block


class BucketedMinwiseFamily(_BucketedFamily):
    """h(x) = sigma_{g(x)}(x): per-bucket functions from the direct sum
    of a t'-wise inner family and a rectangle PRG, indexed by extracting
    the shared source w at the bucket's PRG1-provided seed.

    Seed layout (low bits first): g-seed | prg1-seed | w.
    """

    def __init__(self, params: ConstructionParams, prg1: RectanglePRG,
                 prg2: RectanglePRG, extractor: LeftoverHash) -> None:
        if params.k != 1:
            raise InvalidArgument(f"min-wise construction requires k = 1, got {params.k}")
        super().__init__(params, prg1, prg2, extractor)
        inner = TWiseFamily(params.inner_independence, params.N, params.M)
        if extractor.m != inner.seed_bits + prg2.seed_bits:
            raise InvalidArgument(
                f"extractor output {extractor.m} bits != inner seed "
                f"{inner.seed_bits} + PRG2 seed {prg2.seed_bits}"
            )
        self.inner = inner
        self.after = DirectSumFamily(inner, self.after)

    @property
    def family_id(self) -> str:
        p = self.params
        return (
            f"bucketed_minwise(N={p.N},M={p.M},ell={p.ell},g={self.g.family_id},"
            f"prg1={self.prg1.prg_id},ext={self.extractor.map_id},"
            f"inner={self.inner.family_id},prg2={self.prg2.prg_id})"
        )


class BucketedKMinwiseFamily(DirectSumFamily):
    """h = phi (+) overlay.  The low summand phi(x) = PRG2(Ext(w, s_{g(x)}))(x)
    is the bucketed skeleton with PRG2 alone after the extractor; the high
    summand, the overlay, is a global (C_e+1)k-wise family, so any
    <= (C_e+1)k joint marginals over the overlay seed alone are exactly
    uniform whatever phi does.

    Seed layout (low bits first): g-seed | prg1-seed | w | h0-seed.  On
    a block cut at h0's runs the direct sum's plan reads one overlay
    value a run and phi on one run's seeds.
    """

    def __init__(self, params: ConstructionParams, prg1: RectanglePRG,
                 prg2: RectanglePRG, extractor: LeftoverHash) -> None:
        phi = _BucketedFamily(params, prg1, prg2, extractor)
        if extractor.m != prg2.seed_bits:
            raise InvalidArgument(
                f"extractor output {extractor.m} bits != PRG2 seed {prg2.seed_bits}"
            )
        super().__init__(phi, TWiseFamily(params.overlay_independence, params.N, params.M))
        self.params = params
        self.layout = SeedLayout.build([*((f.name, f.words) for f in phi.layout.fields),
                                        ("h0-seed", self.high.seed_columns())])

    @property
    def family_id(self) -> str:
        p, phi = self.params, self.low
        return (
            f"bucketed_kminwise(N={p.N},M={p.M},k={p.k},ell={p.ell},"
            f"g={phi.g.family_id},prg1={phi.prg1.prg_id},"
            f"ext={phi.extractor.map_id},prg2={phi.prg2.prg_id},"
            f"overlay={self.high.family_id})"
        )


# ---------------------------------------------------------------------------
# JSON config plumbing: each reader takes a dict (checked for unread keys
# when it is done) or a node of a config the caller is reading
# ---------------------------------------------------------------------------


def extractor_from_config(desc: dict | Config) -> LeftoverHash:
    with reading(desc) as cfg:
        cfg.string("kind", choices=("leftover_hash",))
        return LeftoverHash(cfg.int("n"), cfg.int("m", lo=0))


def params_from_config(cfg: dict | Config) -> ConstructionParams:
    with reading(cfg) as node:
        node.require("N", "M")
        return ConstructionParams(**{f.name: node.int(f.name, f.default)
                                     for f in fields(ConstructionParams)})


def family_from_config(cfg: dict | Config) -> SeededFamily:
    """Build a family from the JSON construction config.

    Schema: {family?: "minwise"|"kminwise", N, M, k, ell, t, C, C_g,
    C_s, C_e, prg1: {kind, t?}, prg2: {kind, t?},
    extractor: {kind: "leftover_hash", n, m}}.  The family kind
    defaults to "minwise" when k = 1 and "kminwise" otherwise.
    """
    with reading(cfg) as node:
        params = params_from_config(node)
        extractor = extractor_from_config(node.obj("extractor"))
        prg1 = prg_from_config(node.obj("prg1"), params.ell, 1 << extractor.d)
        prg2 = prg_from_config(node.obj("prg2"), params.N, params.M)
        kind = node.string("family", "minwise" if params.k == 1 else "kminwise",
                           choices=("minwise", "kminwise"))
        family = BucketedMinwiseFamily if kind == "minwise" else BucketedKMinwiseFamily
        return family(params, prg1, prg2, extractor)
