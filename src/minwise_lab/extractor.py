"""Linear seeded extractors that map uniform sources to uniform outputs.

The workhorse is the leftover-hash map E(x, s) = low m bits of x * y_s in
GF(2^n), with y_s = s + 1 so that every (n-1)-bit seed picks a distinct
nonzero multiplier.  Every per-seed matrix has full row rank, which is
the defining extra guarantee here: a fixed seed sends U_n exactly to
U_m.  On top of that this module provides the dual-projection
composition of stages, and the exact per-seed output counts of a flat
source behind the desk-scale extractor oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainMismatch, InvalidArgument, NotFullRank, WidthError, WidthMismatch
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
            raise WidthError(f"output width {m} must be in [0, source width {n})")
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
            raise WidthError(f"seed {s} outside {{0,1}}^{self.d}")
        if not 0 <= x < self.ctx.size:
            raise WidthError(f"source sample {x} outside {{0,1}}^{self.n}")
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
        """(2^d, 2^m) int64 row spans of every seed matrix; cached per instance.

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
            self._span = row_spans(rows.view(np.int64))
        return self._span

    def extract_table(self) -> np.ndarray:
        """Full (2^n, 2^d) uint16 table of outputs; cached per instance.

        No oracle reads it any more (they use span_table): it stays as the
        brute-force reference of the tests and a target of the per-layer
        tracer.  Filled a block of about 2^18 cells at a time, so the
        uint64 products never exist for the whole grid at once.
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


def leftover_bound(m: int, k: float) -> float:
    """The (k, eps)-strong leftover-hash error bound eps = 2 * 2^((m-k)/2)."""
    return 2.0 * 2.0 ** ((m - k) / 2.0)


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
    Each stage must declare .n and .m and provide matrix_of(seed); its .n
    must equal the running width, else WidthMismatch.  A stage whose
    matrix is not full row rank raises NotFullRank.
    """
    if len(stages) != len(seeds):
        raise WidthMismatch(f"{len(stages)} stages but {len(seeds)} seeds")
    if not stages:
        raise WidthMismatch("need at least one stage")
    x, width = w, stages[0].n
    out = shift = 0
    for stage, seed in zip(stages, seeds):
        if stage.n != width:
            raise WidthMismatch(
                f"stage expects {stage.n} source bits, running width is {width}"
            )
        mat = stage.matrix_of(seed)
        if rank(mat) != mat.nrows:
            raise NotFullRank("composition stage is not surjective for this seed")
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
        values = np.sort(np.asarray(self.support))
        if values.dtype.kind not in "iu":
            raise InvalidArgument("support values must be integers of at most 64 bits")
        # sorted, the ends bound the rest and distinct values increase strictly
        if values[0] < 0 or int(values[-1]) >> self.n:
            raise InvalidArgument("support value outside n bits")
        if np.any(values[1:] == values[:-1]):
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


def seed_output_counts(ext: LeftoverHash, source: FlatSource) -> np.ndarray:
    """(2^d, 2^m) int32 counts #{x in support : E(x, s) = y}, exactly.

    With f the support's indicator and f^ its Walsh-Hadamard transform,
    count_s(y) = 2^-m sum_a (-1)^(a . y) f^(span[s, a]), because
    a . E(x, s) = parity(x & span[s, a]).  So one transform of length
    2^n, a gather at the span table and a transform of length 2^m per
    seed give every count, with no 2^n x 2^d output table.  Every
    intermediate is at most 2^(n+m) in magnitude, so int32 cells hold
    them up to n + m = 30, past which InvalidArgument is raised (the
    span table alone would take 8 GiB there).
    """
    if source.n != ext.n:
        raise DomainMismatch(f"source has {source.n} bits, extractor expects {ext.n}")
    if ext.n + ext.m > 30:
        raise InvalidArgument(
            f"n + m = {ext.n + ext.m} exceeds the 30 bits that int32 counts hold")
    f = np.zeros(1 << ext.n, dtype=np.int32)
    f[np.array(source.support, dtype=np.int64)] = 1
    counts = _walsh_hadamard(_walsh_hadamard(f).take(ext.span_table()))
    counts >>= ext.m
    return counts


def strong_extractor_distance(ext: LeftoverHash, source: FlatSource) -> float:
    """Exact distance of (seed, Ext(X, seed)) from uniform, X flat.

    Reduces the exact (seed, output) counts of seed_output_counts, flat
    in seed-major order, so the result carries no sampling error.
    """
    counts = seed_output_counts(ext, source).ravel()
    n_seeds = 1 << ext.d
    n_out = 1 << ext.m
    # reduced in place: one float array of 2^(d+m) cells, not three
    p = counts / (len(source.support) * n_seeds)
    p -= 1.0 / (n_seeds * n_out)
    np.abs(p, out=p)
    return float(p.sum()) / 2.0
