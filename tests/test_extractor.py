"""Tests for the leftover-hash extractor, surjectify, and composition."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import benchmark_module
from minwise_lab.config import power_bound
from minwise_lab.errors import InvalidArgument
from minwise_lab.extractor import (
    FlatSource,
    LeftoverHash,
    compose_extract,
    leftover_bound,
    row_spans,
    spans_full_rank,
    strong_extractor_distance,
)
from minwise_lab.gf2 import BitMatrix, find_irreducible, mat_vec, rank
from minwise_lab.philox import Philox
from reference_extractor import (
    ComposedExtractor,
    TooManyRows,
    exact_statistical_distance,
    min_entropy,
    seed_output_counts,
    surjectify,
)


def test_zero_source_maps_to_zero_every_seed():
    ext = LeftoverHash(6, 3)
    for s in range(1 << ext.d):
        assert ext.extract(0, s) == 0


def test_width_error():
    with pytest.raises(InvalidArgument, match=r"output width 4 must be in \[0, source width 4\)"):
        LeftoverHash(4, 4)
    # a negative output width is refused before it reaches a shift
    with pytest.raises(InvalidArgument, match=r"output width -1 must be in \[0, source width 4\)"):
        LeftoverHash(4, -1)
    ext = LeftoverHash(4, 2)
    with pytest.raises(InvalidArgument, match=r"seed 8 outside \{0,1\}\^3"):
        ext.extract(1, 1 << 3)  # seed too wide
    with pytest.raises(InvalidArgument, match=r"source sample 16 outside \{0,1\}\^4"):
        ext.extract(1 << 4, 0)  # source sample too wide


def test_uniform_in_uniform_out_n4():
    # n=4: for every fixed seed and every m, a uniform source gives an
    # exactly uniform m-bit output
    for m in (1, 2, 3):
        ext = LeftoverHash(4, m)
        for s in range(1 << ext.d):
            outs = [ext.extract(x, s) for x in range(16)]
            counts = np.bincount(outs, minlength=1 << m)
            assert counts.min() == counts.max()


def test_every_seed_matrix_has_full_rank():
    for n in (3, 5, 8):
        for m in (1, n // 2, n - 1):
            ext = LeftoverHash(n, m)
            for s in range(1 << ext.d):
                assert rank(ext.matrix_of(s)) == m


def test_linearity_exhaustive_n6():
    ext = LeftoverHash(6, 2)
    for s in range(1 << ext.d):
        outs = [ext.extract(x, s) for x in range(64)]
        for x, xp in itertools.product(range(64), repeat=2):
            assert outs[x ^ xp] == outs[x] ^ outs[xp]


def test_extract_block_matches_scalar():
    ext = LeftoverHash(7, 4)
    xs = np.arange(128, dtype=np.uint64)
    # a scalar multiplier y_s = s + 1
    for s in (0, 1, 63):
        block = ext.extract_block(xs, s + 1)
        for x in range(128):
            assert int(block[x]) == ext.extract(x, s)
    # one multiplier per source sample
    block = ext.extract_block(xs[:64], np.arange(1, 65, dtype=np.uint64))
    for i in range(64):
        assert int(block[i]) == ext.extract(i, i)


@pytest.mark.parametrize("n", [3, 10, 11])
def test_extract_table_matches_the_whole_grid(n):
    # n = 10 and 11 fill the table in 2 and 8 row blocks
    ext = LeftoverHash(n, n - 2)
    xs = np.arange(1 << n, dtype=np.uint64)[:, None]
    ys = np.arange(1, (1 << (n - 1)) + 1, dtype=np.uint64)[None, :]
    table = ext.extract_table()
    assert table.dtype == np.uint16
    assert np.array_equal(table, ext.extract_block(xs, ys))
    for x, s in [(0, 0), (1, 0), ((1 << n) - 1, (1 << (n - 1)) - 1), (5, 3)]:
        assert int(table[x, s]) == ext.extract(x, s)


def test_leftover_bound_example_n10():
    # n=10, m=4, flat source of entropy 8: distance <= 2*2^((4-8)/2) = 1/2
    ext = LeftoverHash(10, 4)
    rng = random.Random(1010)
    support = tuple(rng.sample(range(1 << 10), 256))
    src = FlatSource(10, support)
    assert min_entropy(src) == 8
    dist = strong_extractor_distance(ext, src)
    assert 0.0 <= dist <= power_bound(*leftover_bound(4, 8)) == 0.5


def test_distance_zero_for_full_support():
    ext = LeftoverHash(6, 3)
    src = FlatSource(6, tuple(range(64)))
    assert strong_extractor_distance(ext, src) == 0.0


def _table_bincount(table: np.ndarray, m: int, support) -> tuple[np.ndarray, Fraction]:
    """Brute-force (seed, output) counts and exact distance from an output
    table: half the sum of |count/(|S| * seeds) - 1/(seeds * 2^m)|, each
    term scaled by |S| * seeds * 2^m to an integer."""
    sub = table[np.array(support, dtype=np.int64), :].astype(np.int64) & ((1 << m) - 1)
    n_seeds = table.shape[1]
    flat = sub + (np.arange(n_seeds, dtype=np.int64)[None, :] << m)
    counts = np.bincount(flat.ravel(), minlength=n_seeds << m)
    scaled = np.abs(counts * (1 << m) - len(support))
    return counts, Fraction(int(scaled.sum()), 2 * len(support) * (n_seeds << m))


@functools.lru_cache(maxsize=1)
def _output_table(n: int) -> np.ndarray:
    """The read-only (2^n, 2^d) table of E's (n-1)-bit outputs, whose low
    m bits are E at m; the two n = 12 tests, run one after the other,
    share one build."""
    table = LeftoverHash(n, n - 1).extract_table()
    table.flags.writeable = False
    return table


@pytest.mark.parametrize("n", range(2, 13))
def test_transform_counts_match_table_bincount(n):
    table = _output_table(n)
    rng = random.Random(n)
    for m in range(1, n):
        ext = LeftoverHash(n, m)
        sizes = (1, 1 << m, rng.randrange(2, 1 << n), 1 << n)
        # at n = 12 one support per m, cycling through the four kinds
        for size in sizes if n < 12 else sizes[m % 4:m % 4 + 1]:
            support = tuple(rng.sample(range(1 << n), size))
            src = FlatSource(n, support)
            counts, dist = _table_bincount(table, m, support)
            assert np.array_equal(seed_output_counts(ext, src).ravel(), counts)
            assert strong_extractor_distance(ext, src) == dist


def test_int32_counts_equal_brute_force_at_the_widest_budget():
    # n = 12, m = 11: 2^22 cells whose intermediates reach 2^23 in magnitude
    ext = LeftoverHash(12, 11)
    table = _output_table(12)
    rng = random.Random(1211)
    for size in (1, 2048, 3001, 4096):
        support = tuple(rng.sample(range(1 << 12), size))
        counts = seed_output_counts(ext, FlatSource(12, support))
        assert counts.dtype == np.int32
        assert np.array_equal(counts.ravel(), _table_bincount(table, 11, support)[0])


def test_counts_past_thirty_bits_are_refused_before_any_table():
    # n + m = 31 would need a 2 GiB span table; nothing is built first
    ext = LeftoverHash(16, 15)
    with pytest.raises(InvalidArgument, match="n \\+ m = 31"):
        strong_extractor_distance(ext, FlatSource(16, (0, 1)))
    assert ext._span is None


@pytest.mark.parametrize("n", range(2, 18))
def test_span_table_equals_the_int64_build_in_the_narrowest_dtype(n):
    # uint8 up to n = 8, uint16 up to 16 and uint32 from 17 on
    ext = LeftoverHash(n, min(n - 1, 3))
    ys = np.arange(1, (1 << ext.d) + 1, dtype=np.uint64)
    rows = np.zeros((1 << ext.d, ext.m), dtype=np.int64)
    for j in range(n):
        out = ext.extract_block(np.uint64(1 << j), ys).astype(np.int64)
        for i in range(ext.m):
            rows[:, i] |= ((out >> i) & 1) << j
    span = ext.span_table()
    assert span.dtype == (np.uint8 if n <= 8 else np.uint16 if n <= 16 else np.uint32)
    assert np.array_equal(span, row_spans(rows))


@pytest.mark.parametrize("n", range(2, 9))
def test_span_table_rank_matches_matrix_rank(n):
    rng = random.Random(n)
    for m in range(1, n):
        ext = LeftoverHash(n, m)
        span = ext.span_table()
        assert span.shape == (1 << ext.d, 1 << m)
        for s in range(1 << ext.d):
            rows = ext.matrix_of(s).rows
            assert [int(span[s, 1 << i]) for i in range(m)] == list(rows)
        full = spans_full_rank(span)
        assert full.tolist() == [rank(ext.matrix_of(s)) == m
                                 for s in range(1 << ext.d)]
        # a combination of rows that cancels is a rank deficiency
        broken = span.copy()
        s, a = rng.randrange(1 << ext.d), rng.randrange(1, 1 << m)
        broken[s, a] = 0
        assert spans_full_rank(broken).tolist() == [t != s for t in range(1 << ext.d)]


def test_spans_full_rank_on_deficient_matrices():
    # leftover-hash matrices all have full rank; random ones often do not
    rng = np.random.Generator(np.random.Philox(key=17))
    for cols, m in ((2, 2), (3, 2), (4, 3), (6, 4)):
        rows = rng.integers(0, 1 << cols, size=(400, m), dtype=np.int64)
        want = [rank(BitMatrix(tuple(int(r) for r in rs), cols)) == m for rs in rows]
        assert 0 < sum(want) < len(want)
        assert spans_full_rank(row_spans(rows)).tolist() == want


def test_span_table_is_built_lazily():
    ext = LeftoverHash(8, 3)
    assert ext._span is None
    assert ext.span_table() is ext.span_table()


# --- surjectify -------------------------------------------------------------


def test_surjectify_full_rank_unchanged():
    m = BitMatrix((0b01, 0b10), 2)
    assert surjectify(m) == m


def test_surjectify_zero_rows_frozen_example():
    # all-zero 2x3 input -> unit vectors on the first two columns
    m = BitMatrix((0, 0), 3)
    out = surjectify(m)
    assert out.rows == (0b001, 0b010)


def test_surjectify_random_rank_deficient():
    rng = random.Random(46)
    for _ in range(200):
        rows = tuple(rng.randrange(1 << 6) for _ in range(4))
        m = BitMatrix(rows, 6)
        out = surjectify(m)
        assert rank(out) == 4
        # kept rows agree with the input on a maximal independent set
        kept = [i for i in range(4) if out.rows[i] == m.rows[i]]
        assert len(kept) == rank(m)
        # row spans of the kept input rows agree by construction
        assert rank(BitMatrix(tuple(m.rows[i] for i in kept), 6)) == rank(m)


def test_surjectify_too_many_rows():
    with pytest.raises(TooManyRows):
        surjectify(BitMatrix((1, 2, 3), 2))


# --- composition ------------------------------------------------------------


def test_single_stage_composition_identical():
    ext = LeftoverHash(5, 2)
    for s in range(1 << ext.d):
        for x in range(32):
            assert compose_extract([ext], x, [s]) == ext.extract(x, s)


def test_two_stage_uniform_source_exactly_uniform():
    first = LeftoverHash(6, 2)
    second = LeftoverHash(4, 2)
    for s1 in range(0, 1 << first.d, 5):
        for s2 in range(1 << second.d):
            outs = [compose_extract([first, second], x, [s1, s2]) for x in range(64)]
            counts = np.bincount(outs, minlength=16)
            assert counts.min() == counts.max() == 4


def test_two_stage_flat_source_bound():
    # n=8, two stages of m=2, flat source of entropy 6: exact joint
    # distance <= sum of the per-stage leftover bounds
    first = LeftoverHash(8, 2)
    second = LeftoverHash(6, 2)
    comp = ComposedExtractor([first, second])
    rng = random.Random(82)
    support = tuple(rng.sample(range(256), 64))
    k = 6
    bound = power_bound(*leftover_bound(2, k)) + power_bound(*leftover_bound(2, k - first.m))
    n_seeds = 1 << comp.d
    counts = np.zeros((n_seeds, 1 << comp.m))
    for s in range(n_seeds):
        for x in support:
            counts[s, comp.extract(x, s)] += 1
    p = counts.ravel() / (len(support) * n_seeds)
    dist = float(np.abs(p - 1.0 / p.size).sum()) / 2.0
    assert dist <= bound


def test_composed_extractor_matches_compose_extract():
    first = LeftoverHash(6, 2)
    second = LeftoverHash(4, 1)
    comp = ComposedExtractor([first, second])
    for s in range(1 << comp.d):
        seeds = [s & ((1 << first.d) - 1), s >> first.d]
        for x in range(64):
            assert comp.extract(x, s) == compose_extract([first, second], x, seeds)


class _DeficientAtOddSeeds(LeftoverHash):
    """Leftover hash whose matrix loses its rank at every odd seed."""

    def matrix_of(self, seed):
        mat = super().matrix_of(seed)
        if seed % 2:
            return BitMatrix((mat.rows[0],) * mat.nrows, mat.cols)
        return mat


def test_rank_deficient_stage_refused_on_every_call():
    first = _DeficientAtOddSeeds(6, 2)
    second = LeftoverHash(4, 2)
    comp = ComposedExtractor([first, second])
    for _ in range(2):
        with pytest.raises(InvalidArgument, match="composition stage is not surjective"):
            compose_extract([first, second], 5, [1, 0])
        with pytest.raises(InvalidArgument, match="composition stage is not surjective"):
            comp.extract(5, 1)
    assert comp.extract(5, 2) == compose_extract([first, second], 5, [2, 0])


def test_width_mismatch_detected():
    first = LeftoverHash(6, 2)
    bad_second = LeftoverHash(5, 1)  # residual width is 4, not 5
    with pytest.raises(InvalidArgument, match="stage expects 5 source bits, running width is 4"):
        compose_extract([first, bad_second], 0, [0, 0])
    with pytest.raises(InvalidArgument, match="stage expects 5 source bits, running width is 4"):
        ComposedExtractor([first, bad_second])
    with pytest.raises(InvalidArgument, match="1 stages but 2 seeds"):
        compose_extract([first], 0, [0, 0])


def test_dual_projection_completes_to_invertible():
    ext = LeftoverHash(8, 3)
    from minwise_lab.gf2 import complement_basis

    for s in range(0, 1 << ext.d, 3):
        mat = ext.matrix_of(s)
        dual = complement_basis(mat)
        assert dual.nrows == ext.n - ext.m
        stacked = BitMatrix(mat.rows + dual.rows, ext.n)
        assert rank(stacked) == ext.n


def test_affine_source_residual_is_flat():
    # for a flat source that is an affine subspace, each residual x_2 is
    # again flat; its entropy is H(x_1) minus the output's rank
    # contribution on the subspace, checkable exactly
    ext = LeftoverHash(6, 2)
    from minwise_lab.gf2 import complement_basis

    base = 0b101001
    dirs = (0b000111, 0b011000, 0b100100)  # independent directions
    support = []
    for mask in range(8):
        v = base
        for i, dvec in enumerate(dirs):
            if (mask >> i) & 1:
                v ^= dvec
        support.append(v)
    for s in range(1 << ext.d):
        mat = ext.matrix_of(s)
        dual = complement_basis(mat)
        residuals: dict[int, int] = {}
        for x in support:
            r = mat_vec(dual, x)
            residuals[r] = residuals.get(r, 0) + 1
        assert len(set(residuals.values())) == 1  # flat residual
        # (out, residual) is a bijection of the source, so conditioned on
        # any output the residual is flat with |A|/|outs| values — the
        # conditional-entropy bookkeeping, checked exactly
        pairs = {(mat_vec(mat, x), mat_vec(dual, x)) for x in support}
        assert len(pairs) == len(support)
        outs = {o for o, _ in pairs}
        per_out: dict[int, int] = {}
        for o, _ in pairs:
            per_out[o] = per_out.get(o, 0) + 1
        assert set(per_out.values()) == {len(support) // len(outs)}


# --- statistical distance ---------------------------------------------------


def test_distance_trivial_cases():
    assert exact_statistical_distance({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert exact_statistical_distance({0: 1.0, 1: 0.0}, {0: 0.0, 1: 1.0}) == 1.0
    assert exact_statistical_distance([0.25] * 4, [0.5, 0.5, 0.0, 0.0]) == 0.5


def test_distance_domain_mismatch():
    with pytest.raises(InvalidArgument, match="distributions cover different outcome sets"):
        exact_statistical_distance({0: 1.0}, {1: 1.0})
    with pytest.raises(InvalidArgument, match="distributions cover different outcome sets"):
        exact_statistical_distance([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        exact_statistical_distance([0.5, 0.4], [0.5, 0.5])


def test_flat_source_validation():
    with pytest.raises(ValueError):
        FlatSource(4, ())
    with pytest.raises(ValueError):
        FlatSource(4, (1, 1))
    with pytest.raises(ValueError):
        FlatSource(4, (16,))
    with pytest.raises(ValueError):
        FlatSource(4, (3, -1))
    with pytest.raises(ValueError):
        FlatSource(4, (2, 1.5))
    with pytest.raises(ValueError):
        FlatSource(4, (1 << 70,))
    # the support is checked unsorted and kept as given
    assert FlatSource(4, (15, 0, 7)).support == (15, 0, 7)


def test_benchmark_flat_sources_are_checked_without_sorting(monkeypatch):
    # the benchmark's extractor-test draws five flat sources at each
    # entropy 6..11 over 12 bits.  A sort's kernels would be the only ones
    # that the extractor oracle faults in: about 0.3 MB of numpy's code
    # pages, which its peak RSS counts and tracemalloc does not see
    params = benchmark_module.load(monkeypatch).oracle_configs(0)["extractor.json"]
    n, m, per = params["n"], params["m"], params["flat_sources"]["per_level"]
    stream = Philox(params["flat_sources"]["rng_seed"])
    supports = [tuple(stream.choice(1 << n, 1 << entropy))
                for entropy in range(m + 1, n) for _ in range(per)]

    def refuse(*args, **kwargs):
        raise AssertionError("a flat source's check sorted its support")

    for name in ("sort", "argsort", "unique"):
        monkeypatch.setattr(np, name, refuse)
    sources = [FlatSource(n, support) for support in supports]
    assert len(sources) == 30
    assert [len(src.support) for src in sources[::per]] == [1 << e for e in range(m + 1, n)]
