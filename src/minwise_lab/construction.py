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
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParamViolation
from .extractor import LeftoverHash
from .kwise import SeededFamily, TWiseFamily, dsum_values
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
        raise ValueError(f"unknown construction kind {kind!r}")


@dataclass(frozen=True)
class SeedField:
    name: str
    offset: int
    width: int


@dataclass(frozen=True)
class SeedLayout:
    """Ordered bit-fields of a packed seed, low offsets first."""

    fields: tuple[SeedField, ...]

    @classmethod
    def build(cls, widths: list[tuple[str, int]]) -> "SeedLayout":
        off = 0
        out = []
        for name, width in widths:
            out.append(SeedField(name, off, width))
            off += width
        return cls(tuple(out))

    @property
    def total_bits(self) -> int:
        return sum(f.width for f in self.fields)

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> SeedField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def unpack(self, seed: int) -> dict:
        return {f.name: (seed >> f.offset) & ((1 << f.width) - 1) for f in self.fields}

    def pack(self, values: dict) -> int:
        seed = 0
        for f in self.fields:
            v = values[f.name]
            if v < 0 or v >> f.width:
                raise ParamViolation(
                    f"field {f.name} value {v:#x} wider than {f.width} bits"
                )
            seed |= v << f.offset
        return seed

    def unpack_block(self, seeds: np.ndarray) -> dict:
        """Field columns from packed 1-D seeds or an unpacked 2-D block.

        The 2-D form (one column per field, layout order) is what
        draw_seed_block emits when the packed seed would overflow 63
        bits.
        """
        if seeds.ndim == 2:
            if seeds.shape[1] != len(self.fields):
                raise ParamViolation(
                    f"unpacked seed block has {seeds.shape[1]} columns, "
                    f"layout has {len(self.fields)} fields"
                )
            return {
                f.name: seeds[:, i].astype(np.uint64, copy=False)
                for i, f in enumerate(self.fields)
            }
        seeds = seeds.astype(np.uint64, copy=False)
        return {
            f.name: (seeds >> np.uint64(f.offset)) & np.uint64((1 << f.width) - 1)
            for f in self.fields
        }

    def draw_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform seeds for sampling: packed when they fit, else 2-D."""
        if self.total_bits <= 63:
            return rng.integers(0, 1 << self.total_bits, size=count, dtype=np.uint64)
        if any(f.width > 63 for f in self.fields):
            raise ParamViolation("a single layout field exceeds 63 bits")
        cols = [
            rng.integers(0, 1 << f.width, size=count, dtype=np.uint64)
            if f.width else np.zeros(count, dtype=np.uint64)
            for f in self.fields
        ]
        return np.stack(cols, axis=1)


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

    def eval_block(self, seeds: np.ndarray, x: int) -> np.ndarray:
        self._check_x(x)
        return np.ones(len(seeds), dtype=np.uint64)


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
    the subclass's ``extra_fields``.
    """

    def __init__(self, params: ConstructionParams, prg1: RectanglePRG,
                 prg2: RectanglePRG, extractor: LeftoverHash,
                 extra_fields: tuple[tuple[str, int], ...] = ()) -> None:
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
            ("g-seed", self.g.seed_bits),
            ("prg1-seed", prg1.seed_bits),
            ("w", extractor.n),
            *extra_fields,
        ])
        self.domain_size = params.N
        self.range_size = params.M
        self.seed_bits = self.layout.total_bits

    def _bucket_output(self, parts: dict, x: int) -> int:
        """Extractor output for x's bucket: Ext(w, PRG1(prg1-seed)_{g(x)} - 1)."""
        bucket = self.g.eval(parts["g-seed"], x)
        s = self.prg1.coord_eval(parts["prg1-seed"], bucket) - 1
        return self.extractor.extract(parts["w"], s)

    @abc.abstractmethod
    def _split(self, parts: dict, z):
        """(t-wise family, its seed, PRG2 seed) from the seed fields and z."""

    def _half_evaluator(self, parts: dict):
        """(z, x) -> (t-wise values, PRG2 seeds) on one block, given the seed
        columns the shared skeleton left in ``parts``.  By default the
        t-wise seed comes from z and is split off it at every point."""
        def half(z, x):
            family, f_seed, prg2_seed = self._split(parts, z)
            return family.eval_block(f_seed, x), prg2_seed
        return half

    def eval(self, seed: int, x: int) -> int:
        self._check_seed(seed)
        self._check_x(x)
        parts = self.layout.unpack(seed)
        family, f_seed, prg2_seed = self._split(parts, self._bucket_output(parts, x))
        return dsum_values(
            family.eval(f_seed, x), self.prg2.coord_eval(prg2_seed, x), self.range_size
        )

    def block_evaluator(self, seeds: np.ndarray):
        # the layout unpack, g's and PRG1's coefficients and the subclass's
        # per-block seeds are bound once; only what depends on z, the
        # extractor output at x's bucket, is evaluated at every point
        parts = self.layout.unpack_block(seeds)
        bucket_of = self.g.block_evaluator(parts.pop("g-seed"))
        prg1_at = self.prg1.block_evaluator(parts.pop("prg1-seed"))
        w = parts.pop("w")
        half = self._half_evaluator(parts)

        def evaluate(x: int) -> np.ndarray:
            self._check_x(x)
            # PRG1's value v in [1, 2^d] is the multiplier y_s of seed v - 1
            z = self.extractor.extract_block(w, ys=prg1_at(bucket_of(x)))
            u, prg2_seed = half(z, x)
            return dsum_values(u, self.prg2.coord_block(prg2_seed, x), self.range_size)

        return evaluate

    def eval_block(self, seeds: np.ndarray, x: int) -> np.ndarray:
        return self.block_evaluator(seeds)(x)

    def draw_seed_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.layout.draw_block(rng, count)


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
                         (("h0-seed", overlay.seed_bits),))
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

    def _half_evaluator(self, parts: dict):
        # the overlay seed is a layout field: its coefficients are unpacked
        # once per block
        overlay = self.overlay.block_evaluator(parts.pop("h0-seed"))
        return lambda z, x: (overlay(x), z)


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
    raise ValueError(f"unknown construction kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON config plumbing
# ---------------------------------------------------------------------------

PARAM_KEYS = ("N", "M", "k", "ell", "t", "C", "C_g", "C_s", "C_e")


def prg_from_config(desc: dict, dimension: int, alphabet: int) -> RectanglePRG:
    """Instantiate a rectangle PRG from a {kind, ...} descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ParamViolation(f"PRG descriptor must be an object with a 'kind': {desc!r}")
    kind = desc["kind"]
    err = desc.get("claimed_error")
    if kind == "full_independence":
        prg = FullIndependencePRG(dimension, alphabet)
        if err is not None:
            raise ParamViolation("full independence has error 0 by definition")
        return prg
    if kind == "twise":
        if "t" not in desc:
            raise ParamViolation("twise PRG descriptor needs a degree 't'")
        return TWisePRG(int(desc["t"]), dimension, alphabet, claimed_error=err)
    if kind == "recursive_mix":
        return RecursiveMixPRG(dimension, alphabet, claimed_error=err)
    raise ParamViolation(f"unknown PRG kind {kind!r}")


def extractor_from_config(desc: dict) -> LeftoverHash:
    if not isinstance(desc, dict) or desc.get("kind") != "leftover_hash":
        raise ParamViolation(
            f"extractor descriptor must have kind 'leftover_hash': {desc!r}"
        )
    if "n" not in desc or "m" not in desc:
        raise ParamViolation("extractor descriptor needs source width n and output m")
    return LeftoverHash(int(desc["n"]), int(desc["m"]),
                        claimed_entropy_k=desc.get("claimed_entropy_k"))


def params_from_config(cfg: dict) -> ConstructionParams:
    missing = [key for key in ("N", "M") if key not in cfg]
    if missing:
        raise ParamViolation(f"config missing required fields: {missing}")
    kwargs = {key: int(cfg[key]) for key in PARAM_KEYS if key in cfg}
    if "k_cap" in cfg:
        kwargs["k_cap"] = int(cfg["k_cap"])
    return ConstructionParams(**kwargs)


def family_from_config(cfg: dict) -> SeededFamily:
    """Build a family from the JSON construction config.

    Schema: {family?: "minwise"|"kminwise", N, M, k, ell, t, C, C_g,
    C_s, C_e, prg1: {kind, ...}, prg2: {kind, ...},
    extractor: {kind: "leftover_hash", n, m}}.  The family kind
    defaults to "minwise" when k = 1 and "kminwise" otherwise.
    """
    params = params_from_config(cfg)
    for key in ("prg1", "prg2", "extractor"):
        if key not in cfg:
            raise ParamViolation(f"config missing component descriptor {key!r}")
    extractor = extractor_from_config(cfg["extractor"])
    prg1 = prg_from_config(cfg["prg1"], params.ell, 1 << extractor.d)
    prg2 = prg_from_config(cfg["prg2"], params.N, params.M)
    kind = cfg.get("family", "minwise" if params.k == 1 else "kminwise")
    if kind == "minwise":
        return build_minwise(params, prg1, prg2, extractor)
    if kind == "kminwise":
        return build_kminwise(params, prg1, prg2, extractor)
    raise ParamViolation(f"unknown family kind {kind!r}")
