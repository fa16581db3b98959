"""Linear seeded extractors that map uniform sources to uniform outputs.

The workhorse is the leftover-hash map E(x, s) = low m bits of x * y_s in
GF(2^n), with y_s = s + 1 so that every (n-1)-bit seed picks a distinct
nonzero multiplier.  Every per-seed matrix has full row rank, which is
the defining extra guarantee here: a fixed seed sends U_n exactly to
U_m.  On top of that this module provides surjectification of arbitrary
linear maps, the kernel-projection composition of stages, and exact
statistical-distance oracles used by the desk-scale verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log2
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainMismatch, NotFullRank, TooManyRows, WidthError, WidthMismatch
from .gf2 import (
    BitMatrix,
    EchelonBasis,
    FieldContext,
    complement_basis,
    find_irreducible,
    mat_vec,
    mul_block,
    rank,
)


def leftover_extract(ctx: FieldContext, x: int, s: int, m: int) -> int:
    """Low-order m bits of x * y_s in the field, with y_s = s + 1.

    ``x`` is an n-bit source sample, ``s`` an (n-1)-bit seed, and m < n.
    """
    n = ctx.degree
    if m >= n:
        raise WidthError(f"output width {m} must be < source width {n}")
    if not 0 <= s < (1 << (n - 1)):
        raise WidthError(f"seed {s} outside {{0,1}}^{n - 1}")
    if not 0 <= x < ctx.size:
        raise WidthError(f"source sample {x} outside {{0,1}}^{n}")
    return ctx.mul(x, s + 1) & ((1 << m) - 1)


class LeftoverHash:
    """The leftover-hash LinearSeededMap: n source bits, n-1 seed bits.

    Attributes
    ----------
    n, d, m : int
        Source, seed, and output widths (d = n - 1).
    claimed_entropy_k : float | None
        Declared min-entropy threshold; with it, claimed_error is the
        leftover-hash bound 2 * 2^((m - k)/2).  Declarations are metadata
        audited empirically, not analytic guarantees of this instance.
    """

    def __init__(self, n: int, m: int, claimed_entropy_k: float | None = None):
        if m >= n:
            raise WidthError(f"output width {m} must be < source width {n}")
        self.ctx = find_irreducible(n)
        self.n = n
        self.d = n - 1
        self.m = m
        self.claimed_entropy_k = claimed_entropy_k
        self.claimed_error = (
            None if claimed_entropy_k is None else leftover_bound(m, claimed_entropy_k)
        )
        self._table: np.ndarray | None = None

    @property
    def map_id(self) -> str:
        return f"leftover(n={self.n},m={self.m},mod={self.ctx.modulus:#x})"

    def extract(self, x: int, s: int) -> int:
        return leftover_extract(self.ctx, x, s, self.m)

    def extract_block(self, xs: np.ndarray, ss) -> np.ndarray:
        """Vectorized extract; ``ss`` is a scalar seed or a seed array."""
        ys = ss + 1 if isinstance(ss, (int, np.integer)) else ss.astype(np.uint64) + np.uint64(1)
        prod = mul_block(self.ctx, xs.astype(np.uint64, copy=False), ys)
        return prod & np.uint64((1 << self.m) - 1)

    def matrix_of(self, seed: int) -> BitMatrix:
        """The m x n matrix of x -> E(x, seed), from basis images."""
        images = [self.extract(1 << j, seed) for j in range(self.n)]
        return BitMatrix.from_images(images, self.m)

    def extract_table(self) -> np.ndarray:
        """Full (2^n, 2^d) uint16 table of outputs; cached per instance.

        Filled a block of about 2^18 cells at a time, so the uint64
        products never exist for the whole grid at once.
        """
        if self._table is None:
            rows, cols = 1 << self.n, 1 << self.d
            table = np.empty((rows, cols), dtype=np.uint16)
            ss = np.arange(cols, dtype=np.uint64)
            step = max(1, (1 << 18) // cols)
            for lo in range(0, rows, step):
                xs = np.arange(lo, min(lo + step, rows), dtype=np.uint64)[:, None]
                table[lo:lo + step] = self.extract_block(xs, ss)
            self._table = table
        return self._table


def leftover_bound(m: int, k: float) -> float:
    """The (k, eps)-strong leftover-hash error bound eps = 2 * 2^((m-k)/2)."""
    return 2.0 * 2.0 ** ((m - k) / 2.0)


def surjectify(m: BitMatrix) -> BitMatrix:
    """Force full row rank, touching only linearly dependent rows.

    The maximal independent row set is fixed first (greedy, top to
    bottom), then each dependent row is replaced by the smallest-index
    unit vector independent of the whole row space and of replacements
    already placed.  Two passes matter: choosing replacements eagerly
    could steal the direction of an original row appearing further down.
    """
    if m.nrows > m.cols:
        raise TooManyRows(f"{m.nrows} rows cannot be independent in {m.cols} columns")
    basis = EchelonBasis()
    dependent = [i for i, r in enumerate(m.rows) if not basis.add(r)]
    out = list(m.rows)
    for i in dependent:
        for j in range(m.cols):
            if basis.add(1 << j):
                out[i] = 1 << j
                break
        else:  # pragma: no cover - impossible while nrows <= cols
            raise TooManyRows("no completing unit vector found")
    return BitMatrix(tuple(out), m.cols)


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
    width = stages[0].n
    maps = []
    for stage, seed in zip(stages, seeds):
        if stage.n != width:
            raise WidthMismatch(
                f"stage expects {stage.n} source bits, running width is {width}"
            )
        maps.append(_stage_map(stage, seed))
        width = maps[-1][2].nrows
    return _apply_stages(maps, w)


def _stage_map(stage, seed: int) -> tuple[int, BitMatrix, BitMatrix]:
    """(m, M_seed, complement_basis(M_seed)) for one stage seed."""
    mat = stage.matrix_of(seed)
    if rank(mat) != mat.nrows:
        raise NotFullRank("composition stage is not surjective for this seed")
    return stage.m, mat, complement_basis(mat)


def _apply_stages(maps, x: int) -> int:
    """Concatenated stage outputs of x, each stage reading the last one's dual."""
    out = shift = 0
    for m, mat, dual in maps:
        out |= mat_vec(mat, x) << shift
        shift += m
        x = mat_vec(dual, x)
    return out


class ComposedExtractor:
    """Several full-rank stages packaged as one map with concatenated seeds.

    Seed layout: stage 1's seed in the low bits.  Output layout matches
    compose_extract (stage 1's output in the low bits).  Each stage's
    matrix and dual are built once per stage seed and kept.
    """

    def __init__(self, stages: Sequence):
        if not stages:
            raise WidthMismatch("need at least one stage")
        self.stages = list(stages)
        self.n = stages[0].n
        self.d = sum(st.d for st in stages)
        self.m = sum(st.m for st in stages)
        width = self.n
        for st in stages:
            if st.n != width:
                raise WidthMismatch(
                    f"stage expects {st.n} source bits, running width is {width}"
                )
            width -= st.m
        self._stage_map = lru_cache(maxsize=None)(_stage_map)

    def extract(self, x: int, s: int) -> int:
        maps = []
        for st in self.stages:
            maps.append(self._stage_map(st, s & ((1 << st.d) - 1)))
            s >>= st.d
        return _apply_stages(maps, x)


@dataclass(frozen=True)
class FlatSource:
    """Uniform distribution on an explicit support of n-bit values."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("support must be nonempty")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support values must be distinct")
        if any(v < 0 or v >> self.n for v in self.support):
            raise ValueError("support value outside n bits")

    @property
    def min_entropy(self) -> float:
        return log2(len(self.support))


def exact_statistical_distance(dist_a, dist_b) -> float:
    """Half the L1 distance between two explicit distributions.

    Accepts mappings keyed by outcome or plain probability sequences;
    both must cover the same finite set and each must sum to 1 within
    1e-12.
    """
    if isinstance(dist_a, Mapping) or isinstance(dist_b, Mapping):
        if not (isinstance(dist_a, Mapping) and isinstance(dist_b, Mapping)):
            raise DomainMismatch("cannot compare a mapping with a sequence")
        if set(dist_a) != set(dist_b):
            raise DomainMismatch("distributions cover different outcome sets")
        keys = list(dist_a)
        pa = np.array([dist_a[k] for k in keys], dtype=float)
        pb = np.array([dist_b[k] for k in keys], dtype=float)
    else:
        pa = np.asarray(dist_a, dtype=float)
        pb = np.asarray(dist_b, dtype=float)
        if pa.shape != pb.shape:
            raise DomainMismatch("distributions cover different outcome sets")
    for p in (pa, pb):
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("distribution does not sum to 1")
    return float(np.abs(pa - pb).sum()) / 2.0


def strong_extractor_distance(ext: LeftoverHash, source: FlatSource) -> float:
    """Exact distance of (seed, Ext(X, seed)) from uniform, X flat.

    Enumerates the full support x seed grid through the cached output
    table, so the result carries no sampling error.
    """
    if source.n != ext.n:
        raise DomainMismatch(f"source has {source.n} bits, extractor expects {ext.n}")
    table = ext.extract_table()
    sub = table[np.array(source.support, dtype=np.int64), :]
    n_seeds = 1 << ext.d
    n_out = 1 << ext.m
    flat = sub.astype(np.int64) + (np.arange(n_seeds, dtype=np.int64)[None, :] << ext.m)
    counts = np.bincount(flat.ravel(), minlength=n_seeds * n_out)
    p = counts / (len(source.support) * n_seeds)
    return float(np.abs(p - 1.0 / (n_seeds * n_out)).sum()) / 2.0
