"""Linear seeded extractors that map uniform sources to uniform outputs.

The workhorse is the leftover-hash map E(x, s) = low m bits of x * y_s in
GF(2^n), with y_s = s + 1 so that every (n-1)-bit seed picks a distinct
nonzero multiplier.  Every per-seed matrix has full row rank, which is
the defining extra guarantee here: a fixed seed sends U_n exactly to
U_m.  On top of that this module provides the dual-projection
composition of stages, and the exact distance of (seed, output) from
uniform on a flat source behind the desk-scale extractor oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidArgument
from .gf2 import (
    BitMatrix,
    complement_basis,
    find_irreducible,
    mat_vec,
    mul_block,
    rank,
    row_spans,
)


class LeftoverHash:
    """The leftover-hash extractor: n source bits, n-1 seed bits, m < n
    output bits, with a full-row-rank GF(2)-linear map at every seed.

    Attributes
    ----------
    n, d, m : int
        Source, seed, and output widths (d = n - 1).
    """

    def __init__(self, n: int, m: int):
        if not 0 <= m < n:
            raise InvalidArgument(f"output width {m} must be in [0, source width {n})")
        self.ctx = find_irreducible(n)
        self.n = n
        self.d = n - 1
        self.m = m
        self._table: np.ndarray | None = None
        self._span: np.ndarray | None = None

    @property
    def map_id(self) -> str:
        return f"leftover(n={self.n},m={self.m},mod={self.ctx.modulus:#x})"

    def extract(self, x: int, s: int) -> int:
        """Low-order m bits of x * y_s in the field, with y_s = s + 1.

        ``x`` is an n-bit source sample and ``s`` an (n-1)-bit seed.
        """
        if not 0 <= s < (1 << self.d):
            raise InvalidArgument(f"seed {s} outside {{0,1}}^{self.d}")
        if not 0 <= x < self.ctx.size:
            raise InvalidArgument(f"source sample {x} outside {{0,1}}^{self.n}")
        return self.ctx.mul(x, s + 1) & ((1 << self.m) - 1)

    def extract_block(self, xs: np.ndarray, ys) -> np.ndarray:
        """Vectorized extract at the multipliers ``ys``, y_s = s + 1 of
        each seed s, a scalar or an array."""
        prod = mul_block(self.ctx, xs.astype(np.uint64, copy=False), ys)
        return prod & np.uint64((1 << self.m) - 1)

    def matrix_of(self, seed: int) -> BitMatrix:
        """The m x n matrix of x -> E(x, seed), from basis images."""
        images = [self.extract(1 << j, seed) for j in range(self.n)]
        return BitMatrix.from_images(images, self.m)

    def span_table(self) -> np.ndarray:
        """(2^d, 2^m) row spans of every seed matrix as n-bit unsigned ints
        of the narrowest dtype; cached per instance.

        Row i of seed s's matrix, r_{s,i}, is the n-bit vector whose bit j
        is bit i of E(2^j, s).  Entry [s, a] is the XOR of the rows r_{s,i}
        with bit i of a set, so that a . E(x, s) = parity(x & span[s, a]).
        Built from n column products, not from a 2^n x 2^d output grid.
        """
        if self._span is None:
            ys = np.arange(1, (1 << self.d) + 1, dtype=np.uint64)
            bits = np.arange(self.m, dtype=np.uint64)
            rows = np.zeros((1 << self.d, self.m), dtype=np.uint64)
            for j in range(self.n):
                column = mul_block(self.ctx, ys, 1 << j)
                rows |= ((column[:, None] >> bits) & np.uint64(1)) << np.uint64(j)
            self._span = row_spans(rows.astype(np.min_scalar_type((1 << self.n) - 1)))
        return self._span

    def extract_table(self) -> np.ndarray:
        """Full (2^n, 2^d) uint16 table of outputs; cached per instance.

        No oracle reads it (they use span_table): it is the brute-force
        reference of the tests and a target of the per-layer tracer.
        Filled a block of about 2^18 cells at a time, so the uint64
        products never exist for the whole grid at once.
        """
        if self._table is None:
            rows, cols = 1 << self.n, 1 << self.d
            table = np.empty((rows, cols), dtype=np.uint16)
            ys = np.arange(1, cols + 1, dtype=np.uint64)
            step = max(1, (1 << 18) // cols)
            for lo in range(0, rows, step):
                xs = np.arange(lo, min(lo + step, rows), dtype=np.uint64)[:, None]
                table[lo:lo + step] = self.extract_block(xs, ys)
            self._table = table
        return self._table


def spans_full_rank(span: np.ndarray) -> np.ndarray:
    """Per row of a row_spans table: do its m rows have rank m?

    They do exactly when no nonzero combination a cancels to 0.
    """
    return np.all(span[:, 1:] != 0, axis=1)


def leftover_bound(m: int, k: int) -> tuple[int, int, Fraction]:
    """The (k, eps)-strong leftover-hash bound 2 * 2^((m-k)/2), as (2, 2, (m-k)/2)."""
    return 2, 2, Fraction(m - k, 2)


def compose_extract(stages: Sequence, w: int, seeds: Sequence[int]) -> int:
    """Evaluate a chain of full-rank linear maps by dual projection.

    Stage i consumes the running residual x_i (x_1 = w), emits
    output_i = M_{s_i} . x_i, and hands the next stage the dual
    coordinates x_{i+1} = R_i . x_i, where R_i = complement_basis(M_{s_i})
    completes the stage's rows to an invertible matrix.  Because
    (output_i, x_{i+1}) is then a bijection of x_i, the residual is
    exactly the leftover randomness of x_i given output_i — which is what
    makes the joint output of all stages exactly uniform on a uniform
    source.  (A kernel basis of M_{s_i} would not do here: over GF(2) the
    kernel can intersect the row space, collapsing the joint output.)

    The return value concatenates the outputs, output_1 in the low bits.
    Each stage must declare .n and .m and provide matrix_of(seed).  A
    stage whose .n is not the running width, or whose matrix is not full
    row rank, raises InvalidArgument.
    """
    if len(stages) != len(seeds):
        raise InvalidArgument(f"{len(stages)} stages but {len(seeds)} seeds")
    if not stages:
        raise InvalidArgument("need at least one stage")
    x, width = w, stages[0].n
    out = shift = 0
    for stage, seed in zip(stages, seeds):
        if stage.n != width:
            raise InvalidArgument(
                f"stage expects {stage.n} source bits, running width is {width}"
            )
        mat = stage.matrix_of(seed)
        if rank(mat) != mat.nrows:
            raise InvalidArgument("composition stage is not surjective for this seed")
        dual = complement_basis(mat)
        out |= mat_vec(mat, x) << shift
        shift += stage.m
        x, width = mat_vec(dual, x), dual.nrows
    return out


@dataclass(frozen=True)
class FlatSource:
    """Uniform distribution on an explicit support of n-bit values."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise InvalidArgument("support must be nonempty")
        values = np.asarray(self.support)
        if values.dtype.kind not in "iu":
            raise InvalidArgument("support values must be integers of at most 64 bits")
        if values.min() < 0 or int(values.max()) >> self.n:
            raise InvalidArgument("support value outside n bits")
        # a set, not a sort: no oracle sorts otherwise, and faulting numpy's
        # sort kernels in cost extractor-test about 0.3 MB of code pages
        if len(set(self.support)) < len(self.support):
            raise InvalidArgument("support values must be distinct")


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis.

    The last axis has length 2^k, and entry u of the result is the sum
    over v of (-1)^popcount(u & v) a[v]; integer arrays stay exact.  Each
    of the k passes butterflies the lowest index bit and rotates it to the
    top, writing both halves contiguously, so no pass works on short
    strided runs.  ``a`` is overwritten as one of the two buffers.
    """
    half = a.shape[-1] >> 1
    out = np.empty_like(a)
    for _ in range(a.shape[-1].bit_length() - 1):
        even, odd = a[..., 0::2], a[..., 1::2]
        np.add(even, odd, out=out[..., :half])
        np.subtract(even, odd, out=out[..., half:])
        a, out = out, a
    return a


# log2 of the span cells that strong_extractor_distance gathers and
# transforms at a time (512 seeds at m = 5): their int32 counts and intp
# gather index stay at 64 and 128 KiB whatever the seed count.
SPAN_SLICE_BITS = 14


def strong_extractor_distance(ext: LeftoverHash, source: FlatSource) -> Fraction:
    """Exact distance of (seed, Ext(X, seed)) from uniform, X flat.

    With f the support's indicator and f^ its Walsh-Hadamard transform,
    2^m count_s(y) = sum_a (-1)^(a . y) f^(span[s, a]), because
    a . E(x, s) = parity(x & span[s, a]).  So one transform of length
    2^n, and per seed a gather at the span table and a transform of
    length 2^m, give every count, with no 2^n x 2^d output table.  Cell
    (s, y) is off uniform by |count * 2^m - |S|| / (|S| * 2^(d+m)), so
    the distance is the sum of those integers over 2 * |S| * 2^(d+m),
    reduced 2^SPAN_SLICE_BITS span cells at a time.  Every intermediate
    is at most 2^(n+m) in magnitude, so int32 cells hold them up to
    n + m = 30, past which InvalidArgument is raised before any table
    is built (the span table alone would have 2^(n+m-1) cells there).
    """
    if source.n != ext.n:
        raise InvalidArgument(f"source has {source.n} bits, extractor expects {ext.n}")
    if ext.n + ext.m > 30:
        raise InvalidArgument(
            f"n + m = {ext.n + ext.m} exceeds the 30 bits that int32 counts hold")
    f = np.zeros(1 << ext.n, dtype=np.int32)
    f[np.array(source.support, dtype=np.int64)] = 1
    spectrum = _walsh_hadamard(f)
    span = ext.span_table()
    step = max(1, (1 << SPAN_SLICE_BITS) >> ext.m)
    total = 0
    for lo in range(0, len(span), step):
        scaled = _walsh_hadamard(spectrum.take(span[lo:lo + step]))
        scaled -= len(source.support)
        np.abs(scaled, out=scaled)
        total += int(scaled.sum(dtype=np.int64))
    return Fraction(total, len(source.support) << (ext.d + ext.m + 1))
