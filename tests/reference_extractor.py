"""Reference extractor routines the tests check the library against.

``extractor.compose_extract`` is the library's one composition of
full-rank stages; ``ComposedExtractor`` is the same dual projection
packaged as one map with concatenated seeds, built stage map by stage
map, so that the two can be compared seed by seed.  ``surjectify``,
``min_entropy`` and ``exact_statistical_distance`` are the direct forms
of facts the tests state about matrices, flat sources and distributions.
``seed_output_counts`` is the whole (seed, output) count table that
``extractor.strong_extractor_distance`` reduces a slice at a time.
"""

from __future__ import annotations

from functools import lru_cache
from math import log2
from typing import Mapping, Sequence

import numpy as np

from minwise_lab.errors import InvalidArgument, MinwiseLabError
from minwise_lab.extractor import FlatSource, LeftoverHash, _walsh_hadamard
from minwise_lab.gf2 import BitMatrix, EchelonBasis, complement_basis, mat_vec, rank


class TooManyRows(MinwiseLabError):
    """surjectify() was given a matrix with more rows than columns."""


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


def _stage_map(stage, seed: int) -> tuple[int, BitMatrix, BitMatrix]:
    """(m, M_seed, complement_basis(M_seed)) for one stage seed."""
    mat = stage.matrix_of(seed)
    if rank(mat) != mat.nrows:
        raise InvalidArgument("composition stage is not surjective for this seed")
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
            raise InvalidArgument("need at least one stage")
        self.stages = list(stages)
        self.n = stages[0].n
        self.d = sum(st.d for st in stages)
        self.m = sum(st.m for st in stages)
        width = self.n
        for st in stages:
            if st.n != width:
                raise InvalidArgument(
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


def seed_output_counts(ext: LeftoverHash, source: FlatSource) -> np.ndarray:
    """(2^d, 2^m) int32 counts #{x in support : E(x, s) = y}, exactly.

    With f the support's indicator and f^ its Walsh-Hadamard transform,
    count_s(y) = 2^-m sum_a (-1)^(a . y) f^(span[s, a]), taken for the
    whole span table at once.  Every intermediate is at most 2^(n+m) in
    magnitude, so int32 cells hold them up to n + m = 30.
    """
    if source.n != ext.n or ext.n + ext.m > 30:
        raise InvalidArgument(f"no int32 count table for n = {ext.n}, m = {ext.m}")
    f = np.zeros(1 << ext.n, dtype=np.int32)
    f[np.array(source.support, dtype=np.int64)] = 1
    counts = _walsh_hadamard(_walsh_hadamard(f).take(ext.span_table()))
    counts >>= ext.m
    return counts


def min_entropy(source: FlatSource) -> float:
    """Min-entropy of a flat source: log2 of its support size."""
    return log2(len(source.support))


def exact_statistical_distance(dist_a, dist_b) -> float:
    """Half the L1 distance between two explicit distributions.

    Accepts mappings keyed by outcome or plain probability sequences;
    both must cover the same finite set and each must sum to 1 within
    1e-12.
    """
    if isinstance(dist_a, Mapping) or isinstance(dist_b, Mapping):
        if not (isinstance(dist_a, Mapping) and isinstance(dist_b, Mapping)):
            raise InvalidArgument("cannot compare a mapping with a sequence")
        if set(dist_a) != set(dist_b):
            raise InvalidArgument("distributions cover different outcome sets")
        keys = list(dist_a)
        pa = np.array([dist_a[k] for k in keys], dtype=float)
        pb = np.array([dist_b[k] for k in keys], dtype=float)
    else:
        pa = np.asarray(dist_a, dtype=float)
        pb = np.asarray(dist_b, dtype=float)
        if pa.shape != pb.shape:
            raise InvalidArgument("distributions cover different outcome sets")
    for p in (pa, pb):
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InvalidArgument("distribution does not sum to 1")
    return float(np.abs(pa - pb).sum()) / 2.0
