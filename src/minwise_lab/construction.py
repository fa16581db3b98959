"""Bucketed (k-)min-wise hash families with explicit, bit-exact seed layouts.

Both families share one skeleton: a bounded-independence allocation g
throws points into ell buckets, a rectangle PRG stretches its seed into
one short extractor seed per bucket, and a single shared source word w
is extracted once per bucket to pick that bucket's inner function.
Evaluation is lazy — h(x) touches only bucket g(x)'s path.

The min-wise (k = 1) variant draws each bucket's function from the
direct sum of a small t'-wise family and a second rectangle PRG; the
k-min-wise variant instead uses the PRG output alone per bucket and
overlays one global (C_e+1)k-wise family via the direct sum.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .config import Config, reading
from .errors import InvalidArgument, ParamViolation
from .extractor import LeftoverHash
from .kwise import (
    POINT_TABLE_BYTES,
    SCAN_CHUNK_BITS,
    SeededFamily,
    SeedLayout,
    TWiseFamily,
    dsum_values,
)
from .rectprg import (
    FullIndependencePRG,
    RectanglePRG,
    RecursiveMixPRG,
    TWisePRG,
)


def _is_pow2(v: int) -> bool:
    return v >= 1 and v & (v - 1) == 0


@dataclass(frozen=True)
class ConstructionParams:
    """Shared parameter block: sizes, bucket count, and the constant ladder.

    The constants must satisfy C_e > C_s > C_g > C >= 1; all derived
    independence degrees and design widths use ceilings so every width
    is a positive integer.  ``t`` is the free knob the target error
    2^(-C*t) is written in; desk-scale configs set it directly.
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
    k_cap: int | None = None

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ParamViolation("domain size N must be >= 1")
        if not _is_pow2(self.M) or self.M < 2:
            raise ParamViolation("alphabet M must be a power of two >= 2")
        if not _is_pow2(self.ell):
            raise ParamViolation("bucket count ell must be a power of two")
        if self.t < 1:
            raise ParamViolation("t must be >= 1")
        if not (self.C_e > self.C_s > self.C_g > self.C >= 1):
            raise ParamViolation(
                f"constants must satisfy C_e > C_s > C_g > C >= 1, got "
                f"C_e={self.C_e} C_s={self.C_s} C_g={self.C_g} C={self.C}"
            )
        if not 1 <= self.k <= self.N:
            raise ParamViolation(f"order k={self.k} outside [1, N={self.N}]")
        cap = self.k_cap
        if cap is None:
            cap = max(1, round(math.log2(self.N))) ** 2
        if self.k > cap:
            raise ParamViolation(f"order k={self.k} above the polylog cap {cap}")

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

    @property
    def target_error(self) -> Fraction:
        return Fraction(1, 2 ** (self.C * self.t))

    def design_widths(self, kind: str) -> dict:
        """The width formulas the analysis assigns each component.

        These are reporting values; the binding arithmetic identity is
        that the layout's field widths sum to the family's seed_bits.
        """
        logn = math.log2(max(2, self.N))
        if kind == "minwise":
            return {
                "source_bits": math.ceil(self.C_e * logn),
                "output_bits": math.ceil(0.3 * self.C_e * logn),
                "per_bucket_seed_bits": self.C_e * self.t,
            }
        if kind == "kminwise":
            return {
                "source_bits": math.ceil(10 * self.k * self.C_e * logn),
                "output_bits": math.ceil(self.C_e * logn),
                "per_bucket_seed_bits": self.C_e * self.t,
            }
        raise InvalidArgument(f"unknown construction kind {kind!r}")


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

    def block_evaluator(self, seeds: np.ndarray):
        def evaluate(x: int) -> np.ndarray:
            self._check_x(x)
            return np.ones(len(seeds), dtype=np.uint64)

        return evaluate


def _allocation_family(params: ConstructionParams) -> SeededFamily:
    if params.ell == 1:
        return _SingleBucket(params.N)
    return TWiseFamily(params.allocation_independence, params.N, params.ell)


class _BucketedFamily(SeededFamily):
    """The shared skeleton: allocation g, per-bucket extractor seeds from
    PRG1, and one source word w extracted at x's bucket.  h(x) is the
    direct sum of a t-wise family and PRG2 at x, with the two seeds that
    each subclass's ``_split`` takes from the extractor output.

    Seed layout (low bits first): g-seed | prg1-seed | w, followed by
    the subclass's ``extra_fields``, each with the words of what reads it
    (w is one word).  The low L = g-seed + prg1-seed bits reach
    z = Ext(w, s_{g(x)}) only through PRG1's multiplier at
    g(x)'s bucket, and z reaches h(x) only through what ``_after_z``
    computes from it.  So the block evaluator serves each point x from
    up to two tables, built on first use from the same block paths and
    kept for the family's life, while they fit POINT_TABLE_BYTES (summed
    over the points of this family; g, PRG1, PRG2 and the t-wise family
    each keep their own tables within their own budget): T_x, the
    after-z value for each of the 2^m outputs, and Y_x, the multiplier
    for each of the 2^L low values.  On a ``range`` of consecutive seeds
    cut at multiples of 2^L, such as an exhaustive scan block, each point
    then costs one gather of Y_x through one composed row
    T_x[low_m(w * y)] per source word w.  This needs
    m < n <= L <= SCAN_CHUNK_BITS.  Every other block (an array,
    even of consecutive seeds), and every point without both tables,
    goes through the layers, which map z through T_x where it was built.
    Once a block has evaluated ell distinct points, or from its first
    point when the previous layered block did, the layers compute z for
    every bucket once for the block, and each point gathers its own
    bucket's z; before that, each point extracts z at its own bucket.
    So a corpus of P points costs min(P, ell) extractions a block, and
    at most 2 * ell - 1 on its first block; the per-bucket z take ell
    entries a seed (32 MiB for a 2^16-seed block at ell = 256 with 2-byte
    z).  All paths give equal values, and the scalar ``eval`` is the
    reference for each.
    """

    def __init__(self, params: ConstructionParams, prg1: RectanglePRG,
                 prg2: RectanglePRG, extractor: LeftoverHash,
                 extra_fields: tuple[tuple[str, tuple[int, ...]], ...] = ()) -> None:
        if prg1.dimension != params.ell:
            raise ParamViolation(
                f"per-bucket seed PRG dimension {prg1.dimension} != ell {params.ell}"
            )
        if prg1.alphabet != 1 << extractor.d:
            raise ParamViolation(
                f"per-bucket seed PRG alphabet {prg1.alphabet} does not cover the "
                f"{extractor.d}-bit extractor seed"
            )
        if prg2.dimension != params.N or prg2.alphabet != params.M:
            raise ParamViolation(
                f"inner PRG shape ({prg2.dimension}, {prg2.alphabet}) != "
                f"(N={params.N}, M={params.M})"
            )
        self.params = params
        self.g = _allocation_family(params)
        self.prg1 = prg1
        self.prg2 = prg2
        self.extractor = extractor
        self.layout = SeedLayout.build([
            ("g-seed", self.g.seed_columns()),
            ("prg1-seed", prg1.seed_columns()),
            ("w", (extractor.n,)),
            *extra_fields,
        ])
        self.domain_size = params.N
        self.range_size = params.M
        self.seed_bits = self.layout.total_bits
        self.low_bits = self.layout.field("w").offset
        # the per-point tables, x -> T_x and x -> Y_x (None past the
        # budget), filled on first use; every point evaluated has a T_x entry
        self._after_tables: dict = {}
        self._low_tables: dict = {}
        self._table_bytes = 0
        # distinct points evaluated by the last layered block evaluator
        self._block_points = 0

    def seed_columns(self) -> tuple[int, ...]:
        return self.layout.words

    def _bucket_output(self, parts: dict, x: int) -> int:
        """Extractor output for x's bucket: Ext(w, PRG1(prg1-seed)_{g(x)} - 1)."""
        bucket = self.g.eval(parts["g-seed"], x)
        s = self.prg1.coord_eval(parts["prg1-seed"], bucket) - 1
        return self.extractor.extract(parts["w"], s)

    @abc.abstractmethod
    def _split(self, parts: dict, z):
        """(t-wise family, its seed, PRG2 seed) from the seed fields and z."""

    @abc.abstractmethod
    def _after_z(self, z: np.ndarray, x: int) -> np.ndarray:
        """Values at x of what depends on the seed only through z, for a
        block of extractor outputs."""

    def _combiner(self, column):
        """(x, after-z values) -> h's values on the block whose field
        columns ``column(name)`` reads.  For the min-wise family h is its
        after-z half."""
        return lambda x, after: after

    def eval(self, seed: int, x: int) -> int:
        self._check_seed(seed)
        self._check_x(x)
        parts = self.layout.unpack(seed)
        family, f_seed, prg2_seed = self._split(parts, self._bucket_output(parts, x))
        return dsum_values(
            family.eval(f_seed, x), self.prg2.coord_eval(prg2_seed, x), self.range_size
        )

    def _table(self, tables: dict, x: int, nbytes: int, build):
        """tables[x], set on first use to ``build(x)`` if ``nbytes`` fit
        what is left of POINT_TABLE_BYTES, else to None."""
        if x not in tables:
            fits = self._table_bytes + nbytes <= POINT_TABLE_BYTES
            tables[x] = build(x) if fits else None
            self._table_bytes += nbytes if fits else 0
        return tables[x]

    def _after_table(self, x: int) -> np.ndarray | None:
        """T_x: the after-z value at x for every extractor output z, in the
        narrowest dtype that holds M."""
        dtype = np.min_scalar_type(self.range_size)
        return self._table(
            self._after_tables, x, dtype.itemsize << self.extractor.m,
            lambda x: self._after_z(np.arange(1 << self.extractor.m, dtype=np.uint64),
                                    x).astype(dtype))

    def _low_table(self, x: int) -> np.ndarray | None:
        """Y_x: PRG1's value at g(x)'s bucket, which is the extractor
        multiplier y_s = s + 1, for every low value g-seed | prg1-seed."""
        def build(x):
            parts = self.layout.unpack_block(np.arange(1 << self.low_bits, dtype=np.uint64))
            bucket = self.g.block_evaluator(parts["g-seed"])(x)
            return self.prg1.block_evaluator(parts["prg1-seed"])(bucket)

        return self._table(self._low_tables, x, 8 << self.low_bits, build)

    def _sub_block_sources(self, seeds: np.ndarray | range):
        """w of each 2^L-seed sub-block when ``seeds`` is a step-1
        ``range`` cut at multiples of 2^L, else None.

        Only then is a per-w row of T_x worth composing: the row has 2^n
        entries, at most one sub-block's worth.
        """
        L, n = self.low_bits, self.extractor.n
        if (not isinstance(seeds, range) or seeds.step != 1 or not seeds
                or L > SCAN_CHUNK_BITS or n > L
                or seeds.start % (1 << L) or len(seeds) % (1 << L)):
            return None
        high = np.arange(seeds.start >> L, seeds.stop >> L, dtype=np.uint64)
        return high & np.uint64((1 << n) - 1)

    def _layered_evaluator(self, seeds: np.ndarray):
        # the layout unpack, g's and PRG1's coefficients and the combiner's
        # per-block seeds are bound once; only what depends on z, the
        # extractor output at x's bucket, is evaluated at every point
        parts = self.layout.unpack_block(seeds)
        bucket_of = self.g.block_evaluator(parts.pop("g-seed"))
        prg1_at = self.prg1.block_evaluator(parts.pop("prg1-seed"))
        w = parts.pop("w")[:, 0].astype(np.uint64)
        combine = self._combiner(parts.__getitem__)
        ell, z_dtype = self.params.ell, np.min_scalar_type((1 << self.extractor.m) - 1)
        # the per-bucket pass pays once a block evaluates ell distinct
        # points: it starts at the block's first point when the previous
        # layered block reached ell, else at the ell-th
        seen, previous = set(), self._block_points

        @functools.cache
        def bucket_z():
            # z at bucket b of seed j in cell (b - 1) * len(w) + j, so each
            # bucket's row is written whole; PRG1's value v in [1, 2^d] is
            # the multiplier y_s of seed v - 1
            z = np.empty((ell, len(w)), dtype=z_dtype)
            for b in range(ell):
                z[b] = self.extractor.extract_block(w, ys=prg1_at(b + 1))
            return z.reshape(-1), np.arange(-len(w), 0)

        def evaluate(x: int) -> np.ndarray:
            self._check_x(x)
            after = self._after_table(x)
            seen.add(x)
            self._block_points = len(seen)
            if ell <= max(previous, len(seen)):
                z, cell = bucket_z()
                if ell > 1:
                    # buckets are uint64 from Horner, narrower from tables
                    row = np.multiply(bucket_of(x), len(w), dtype=np.intp, casting="unsafe")
                    z = z.take(row + cell)
            else:
                z = self.extractor.extract_block(w, ys=prg1_at(bucket_of(x))).astype(z_dtype)
            return combine(x, self._after_z(z, x) if after is None else after.take(z))

        return evaluate

    def block_evaluator(self, seeds: np.ndarray):
        sources = self._sub_block_sources(seeds)
        if sources is None:
            return self._layered_evaluator(seeds)
        n = self.extractor.n
        # z for every (sub-block's w, multiplier y) pair, row-major
        row_z = self.extractor.extract_block(
            sources[:, None], ys=np.arange(1 << n, dtype=np.uint64)).view(np.int64)
        row_of = (np.arange(len(sources), dtype=np.int64) << n)[:, None]
        combine = self._combiner(lambda name: self.layout.unpack_block(seeds)[name])
        # bound only if some point of the block has no tables
        layered = functools.cache(lambda: self._layered_evaluator(seeds))

        def evaluate(x: int) -> np.ndarray:
            self._check_x(x)
            after, ys = self._after_table(x), self._low_table(x)
            if after is None or ys is None:
                return layered()(x)
            # one gather of Y_x through the rows T_x[low_m(w * y)]
            index = ys.view(np.int64) if len(sources) == 1 else row_of + ys.view(np.int64)
            return combine(x, after.take(row_z).take(index).reshape(-1))

        return evaluate


class BucketedMinwiseFamily(_BucketedFamily):
    """h(x) = sigma_{g(x)}(x): per-bucket functions from the direct sum
    of a t'-wise inner family and a rectangle PRG, indexed by extracting
    the shared source w at the bucket's PRG1-provided seed.

    Seed layout (low bits first): g-seed | prg1-seed | w.
    """

    def __init__(self, params: ConstructionParams, prg1: RectanglePRG,
                 prg2: RectanglePRG, extractor: LeftoverHash) -> None:
        if params.k != 1:
            raise ParamViolation(f"min-wise construction requires k = 1, got {params.k}")
        super().__init__(params, prg1, prg2, extractor)
        inner = TWiseFamily(params.inner_independence, params.N, params.M)
        if extractor.m != inner.seed_bits + prg2.seed_bits:
            raise ParamViolation(
                f"extractor output {extractor.m} bits != inner seed "
                f"{inner.seed_bits} + PRG2 seed {prg2.seed_bits}"
            )
        self.inner = inner

    @property
    def family_id(self) -> str:
        p = self.params
        return (
            f"bucketed_minwise(N={p.N},M={p.M},ell={p.ell},g={self.g.family_id},"
            f"prg1={self.prg1.prg_id},ext={self.extractor.map_id},"
            f"inner={self.inner.family_id},prg2={self.prg2.prg_id})"
        )

    def _split(self, parts: dict, z):
        # with Python int operands, uint64 columns stay uint64 under both
        # numpy 1.x value-based casting and NEP 50
        return self.inner, z & (self.inner.seed_space - 1), z >> self.inner.seed_bits

    def _after_z(self, z: np.ndarray, x: int) -> np.ndarray:
        inner = self.inner.eval_block(z & (self.inner.seed_space - 1), x)
        return dsum_values(inner, self.prg2.coord_block(z >> self.inner.seed_bits, x),
                           self.range_size)


class BucketedKMinwiseFamily(_BucketedFamily):
    """h = overlay (+) phi where phi(x) = PRG2(Ext(w, s_{g(x)}))(x).

    The overlay is a global (C_e+1)k-wise family combined by the direct
    sum, so any <= (C_e+1)k joint marginals over the overlay seed alone
    are exactly uniform whatever the bucketed half does.

    Seed layout (low bits first): g-seed | prg1-seed | w | h0-seed.
    """

    def __init__(self, params: ConstructionParams, prg1: RectanglePRG,
                 prg2: RectanglePRG, extractor: LeftoverHash) -> None:
        overlay = TWiseFamily(params.overlay_independence, params.N, params.M)
        super().__init__(params, prg1, prg2, extractor,
                         (("h0-seed", overlay.seed_columns()),))
        if extractor.m != prg2.seed_bits:
            raise ParamViolation(
                f"extractor output {extractor.m} bits != PRG2 seed {prg2.seed_bits}"
            )
        self.overlay = overlay

    @property
    def family_id(self) -> str:
        p = self.params
        return (
            f"bucketed_kminwise(N={p.N},M={p.M},k={p.k},ell={p.ell},"
            f"g={self.g.family_id},prg1={self.prg1.prg_id},"
            f"ext={self.extractor.map_id},prg2={self.prg2.prg_id},"
            f"overlay={self.overlay.family_id})"
        )

    def _split(self, parts: dict, z):
        return self.overlay, parts["h0-seed"], z

    def _after_z(self, z: np.ndarray, x: int) -> np.ndarray:
        return self.prg2.coord_block(z, x)

    def _combiner(self, column):
        # the overlay seed is a layout field: its words are its coefficients
        overlay = self.overlay.block_evaluator(column("h0-seed"))
        return lambda x, after: dsum_values(overlay(x), after, self.range_size)


def build_minwise(params: ConstructionParams, prg1: RectanglePRG,
                  prg2: RectanglePRG, extractor: LeftoverHash) -> BucketedMinwiseFamily:
    """Assemble the bucketed min-wise family; ParamViolation on mismatch."""
    return BucketedMinwiseFamily(params, prg1, prg2, extractor)


def build_kminwise(params: ConstructionParams, prg1: RectanglePRG,
                   prg2: RectanglePRG, extractor: LeftoverHash) -> BucketedKMinwiseFamily:
    """Assemble the bucketed k-min-wise family; ParamViolation on mismatch."""
    return BucketedKMinwiseFamily(params, prg1, prg2, extractor)


def seed_layout(params: ConstructionParams, prg1: RectanglePRG,
                prg2: RectanglePRG, extractor: LeftoverHash,
                kind: str = "minwise") -> SeedLayout:
    """The layout the corresponding builder would assign, without building."""
    if kind == "minwise":
        return build_minwise(params, prg1, prg2, extractor).layout
    if kind == "kminwise":
        return build_kminwise(params, prg1, prg2, extractor).layout
    raise InvalidArgument(f"unknown construction kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON config plumbing: each reader takes a dict (checked for unread keys
# when it is done) or a node of a config the caller is reading
# ---------------------------------------------------------------------------


def prg_from_config(desc: dict | Config, dimension: int, alphabet: int) -> RectanglePRG:
    """Instantiate a rectangle PRG from a {kind, ...} descriptor.  A t-wise
    PRG takes t <= dimension: at t = dimension its coordinates are already
    fully independent."""
    with reading(desc) as cfg:
        kind = cfg.string("kind", choices=("full_independence", "twise", "recursive_mix"))
        err = cfg.number("claimed_error", None, lo=0)
        if kind == "twise":
            return TWisePRG(cfg.int("t", lo=1, hi=dimension), dimension, alphabet,
                            claimed_error=err)
        if kind == "recursive_mix":
            return RecursiveMixPRG(dimension, alphabet, claimed_error=err)
        if err is not None:
            raise ParamViolation("full independence has error 0 by definition")
        return FullIndependencePRG(dimension, alphabet)


def extractor_from_config(desc: dict | Config) -> LeftoverHash:
    with reading(desc) as cfg:
        cfg.string("kind", choices=("leftover_hash",))
        n, m = cfg.int("n"), cfg.int("m", lo=0)
        return LeftoverHash(n, m, claimed_entropy_k=cfg.number("claimed_entropy_k", None,
                                                               lo=0, hi=n))


def params_from_config(cfg: dict | Config) -> ConstructionParams:
    with reading(cfg) as node:
        node.require("N", "M")
        return ConstructionParams(**{f.name: node.int(f.name, f.default)
                                     for f in fields(ConstructionParams)})


def family_from_config(cfg: dict | Config) -> SeededFamily:
    """Build a family from the JSON construction config.

    Schema: {family?: "minwise"|"kminwise", N, M, k, ell, t, C, C_g,
    C_s, C_e, k_cap, prg1: {kind, ...}, prg2: {kind, ...},
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
        build = build_minwise if kind == "minwise" else build_kminwise
        return build(params, prg1, prg2, extractor)
