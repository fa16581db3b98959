"""Tests for the polynomial t-wise families and their direct sum."""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksize import scan_chunk_bits
from deadline import deadline
from seed_rows import seed_ints, split_words
from minwise_lab import kwise
from minwise_lab.construction import BucketedKMinwiseFamily, ConstructionParams
from minwise_lab.errors import InvalidArgument, ScanWorkerFailed, SeedSpaceTooLarge
from minwise_lab.extractor import LeftoverHash
from minwise_lab.gf2 import find_irreducible, mul_block
from minwise_lab.kwise import (
    MC_COUNT_BITS,
    MC_DRAW_BITS,
    POINT_TABLE_BITS,
    SCAN_CHUNK_BITS,
    DirectSumFamily,
    SeedLayout,
    TWiseFamily,
    dsum_values,
    scan,
    scan_blocks,
    seed_words,
)
from minwise_lab.philox import Philox
from minwise_lab.rectprg import FullIndependencePRG, RecursiveMixPRG, TWisePRG


def test_constant_family_t1():
    fam = TWiseFamily(1, domain_size=5, range_size=8)
    for seed in range(fam.seed_space):
        want = (seed & 7) + 1
        for x in range(1, 6):
            assert fam.eval(seed, x) == want


def test_known_field_example():
    # t=2 over GF(2^2) mod x^2+x+1, a0=0b01, a1=0b10, chi=0b11:
    # a0 + a1*chi = 01 + (x*(x+1) = x^2+x = 1) = 0
    fam = TWiseFamily(2, domain_size=4, range_size=4)
    assert fam.ctx.modulus == 0b111
    seed = 0b01 | (0b10 << 2)
    assert fam.eval_field(seed, 0b11) == 0
    assert fam.eval(seed, 0b11 + 1) == 1  # low bits 00 -> value 1


def joint_counts(fam: TWiseFamily, positions: tuple[int, ...]) -> np.ndarray:
    """Exhaustive joint histogram of fam at the given 1-indexed points."""
    seeds = np.arange(fam.seed_space, dtype=np.uint64)
    vals = [fam.eval_block(seeds, x) - 1 for x in positions]
    flat = np.zeros_like(seeds)
    for v in vals:
        flat = flat * np.uint64(fam.range_size) + v
    return np.bincount(flat.astype(np.int64), minlength=fam.range_size ** len(positions))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_exact_twise_uniformity_small(t):
    fam = TWiseFamily(t, domain_size=8, range_size=8)
    for positions in itertools.combinations(range(1, 9), t):
        counts = joint_counts(fam, positions)
        assert counts.min() == counts.max()


def test_three_position_joint_uniform_t3():
    # t=3, N=M=8: any 3 positions are jointly uniform over all 2^9 seeds
    fam = TWiseFamily(3, domain_size=8, range_size=8)
    assert fam.seed_bits == 9
    counts = joint_counts(fam, (1, 4, 7))
    assert counts.min() == counts.max() == fam.seed_space // 8**3


def test_eval_block_matches_scalar():
    fam = TWiseFamily(3, domain_size=6, range_size=8)
    seeds = np.arange(fam.seed_space, dtype=np.uint64)
    for x in (1, 3, 6):
        block = fam.eval_block(seeds, x)
        sample = np.random.Generator(np.random.Philox(key=x)).choice(
            fam.seed_space, size=64, replace=False
        )
        for s in sample:
            assert fam.eval(int(s), x) == int(block[s])


def test_coefficient_block_form_matches_packed():
    fam = TWiseFamily(2, domain_size=8, range_size=8)
    n = fam.ctx.degree
    packed = np.arange(fam.seed_space, dtype=np.uint64)
    coeffs = np.stack(
        [(packed >> np.uint64(i * n)) & np.uint64(fam.ctx.size - 1) for i in range(fam.t)],
        axis=1,
    )
    assert np.array_equal(fam.eval_block(packed, 5), fam.eval_block(coeffs, 5))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_block_forms_leave_their_seeds_alone(t):
    # Horner returns its top coefficient as is when t = 1; for a 2-D
    # seed array that is a column view, which callers must not hand out
    fam = TWiseFamily(t, domain_size=8, range_size=8)
    n = fam.ctx.degree
    packed = np.arange(fam.seed_space, dtype=np.uint64)
    coeffs = np.stack(
        [(packed >> np.uint64(i * n)) & np.uint64(fam.ctx.size - 1) for i in range(t)],
        axis=1,
    )
    kept = packed.copy(), coeffs.copy()
    scalar = np.array([[fam.eval(int(s), x) for s in packed] for x in range(1, 9)])
    for seeds in (packed, coeffs):
        for x in range(1, 9):
            out = fam.eval_block(seeds, x)
            assert np.array_equal(out, scalar[x - 1])
            assert not np.shares_memory(out, seeds)
            out[:] = 0
    assert np.array_equal(packed, kept[0]) and np.array_equal(coeffs, kept[1])


def test_seed_and_domain_validation():
    fam = TWiseFamily(2, domain_size=4, range_size=4)
    with pytest.raises(InvalidArgument, match=r"seed 0x10 outside \[0, 2\^4\)"):
        fam.eval(fam.seed_space, 1)
    with pytest.raises(InvalidArgument, match=r"point 5 outside \[1, 4\]"):
        fam.eval(0, 5)
    with pytest.raises(InvalidArgument, match=r"point 0 outside \[1, 4\]"):
        fam.eval(0, 0)


def test_range_must_be_power_of_two():
    with pytest.raises(ValueError):
        TWiseFamily(2, domain_size=4, range_size=6)


# --- direct sum -------------------------------------------------------------


def test_direct_sum_formula_and_seed_order():
    f = TWiseFamily(1, domain_size=4, range_size=4)
    g = TWiseFamily(2, domain_size=4, range_size=4)
    d = DirectSumFamily(f, g)
    assert d.seed_bits == f.seed_bits + g.seed_bits
    for seed in range(0, d.seed_space, 7):
        sf = seed & (f.seed_space - 1)
        sg = seed >> f.seed_bits
        for x in range(1, 5):
            u, v = f.eval(sf, x), g.eval(sg, x)
            assert d.eval(seed, x) == ((u + v - 1) % 4) + 1


def test_direct_sum_is_bijection_per_fixed_other_value():
    for v in range(1, 9):
        images = {dsum_values(u, v, 8) for u in range(1, 9)}
        assert images == set(range(1, 9))


@pytest.mark.parametrize("M", [2, 4, 16, 64, 128, 256, 1 << 15, 1 << 16])
def test_dsum_values_equals_the_modular_formula(M):
    # the full grid up to M = 256, a random sample of pairs above; on
    # uint64 and on min_scalar_type(M), the narrowest dtype an evaluator
    # returns, where u + v may wrap past the dtype's top
    if M <= 256:
        u, v = (a.ravel() for a in np.meshgrid(np.arange(1, M + 1), np.arange(1, M + 1)))
    else:
        rng = np.random.Generator(np.random.Philox(key=M))
        u, v = rng.integers(1, M + 1, size=(2, 1 << 14))
        u[:4], v[:4] = (1, 1, M, M), (1, M, 1, M)
    want = (u + v - 1) % M + 1
    for a, b in zip(u.tolist(), v.tolist()):
        assert dsum_values(a, b, M) == (a + b - 1) % M + 1
    for dtype, m in ((np.uint64, M), (np.uint64, np.uint64(M)), (np.min_scalar_type(M), M)):
        got = dsum_values(u.astype(dtype), v.astype(dtype), m)
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def _word_block(fam: TWiseFamily, rng, count: int):
    """A packed block when the seed fits 63 bits, else word columns."""
    if fam.seed_bits <= 63:
        return rng.integers(0, fam.seed_space, size=count, dtype=np.uint64)
    return np.stack([rng.integers(0, fam.ctx.size, size=count, dtype=np.uint64)
                     for _ in range(fam.t)], axis=1)


def _spy_run_tables(monkeypatch) -> list:
    """(x, tables) for every point's tables TWiseFamily builds from now on."""
    built, build = [], TWiseFamily._run_tables

    def spy(self, x):
        built.append((x, build(self, x)))
        return built[-1][1]

    monkeypatch.setattr(TWiseFamily, "_run_tables", spy)
    return built


@pytest.mark.parametrize("n", range(1, 17))
def test_point_tables_match_scalar_eval(monkeypatch, n):
    rng = np.random.Generator(np.random.Philox(key=n))
    ctx = find_irreducible(n)
    M = max(2, 1 << (n - 1))  # below 2^n from n = 2 on: the mask drops bits
    for t in (1, 2, 3, 4, 10):
        fam = TWiseFamily(t, ctx.size, M)
        assert fam.ctx == ctx
        # tables where a run holds two or more words, Horner elsewhere
        assert fam.run_words == (min(t, POINT_TABLE_BITS // n)
                                 if t >= 2 and 2 * n <= POINT_TABLE_BITS else 0)
        seeds = _word_block(fam, rng, 64)
        ints = seed_ints(seeds, fam.seed_columns())
        points = sorted({1, ctx.size, *rng.integers(1, ctx.size + 1, size=3).tolist()})
        built = _spy_run_tables(monkeypatch)
        plan = fam.bind(points)
        evaluate = plan(seeds)
        for x in points:
            want = [fam.eval(s, x) for s in ints]
            for point in (x, np.int64(x), np.uint64(x)):
                got = evaluate(point)
                assert got.tolist() == want, (t, x, type(point))
                assert got.dtype == (np.min_scalar_type(M) if fam.run_words else np.uint64)
        assert [x for x, _ in built] == (points if fam.run_words else [])
        for _, tables in built:
            assert all(len(table) <= 1 << POINT_TABLE_BITS for table in tables)
            assert len(tables) == -(-t // fam.run_words)


def test_points_past_the_table_budget_are_evaluated_by_horner(monkeypatch):
    # 10-wise over GF(2^4): runs of 3, 3, 3 and 1 words, 3 * 2^12 + 2^4
    # uint8 entries a point; a budget of two points' tables
    fam = TWiseFamily(10, domain_size=16, range_size=16)
    assert fam.run_words == 3
    monkeypatch.setattr(kwise, "POINT_TABLE_BYTES", 2 * (3 * 4096 + 16))
    rng = np.random.Generator(np.random.Philox(key=10))
    seeds = _word_block(fam, rng, 200)
    ints = seed_ints(seeds, fam.seed_columns())
    built = _spy_run_tables(monkeypatch)
    evaluate = fam.bind(range(1, 17))(seeds)
    for x in range(1, 17):
        got = evaluate(x)
        assert got.tolist() == [fam.eval(s, x) for s in ints], x
        assert got.dtype == (np.uint8 if x <= 2 else np.uint64), x
    assert [x for x, _ in built] == [1, 2]
    assert sum(t.nbytes for _, tables in built for t in tables) == 2 * (3 * 4096 + 16)


@pytest.mark.parametrize("x", [0, -1, 9, np.uint64(9)])
def test_point_outside_the_domain_raises_before_any_table(monkeypatch, x):
    fam = TWiseFamily(3, domain_size=8, range_size=8)
    assert fam.run_words == 3
    built, build = [], TWiseFamily._run_tables
    monkeypatch.setattr(TWiseFamily, "_run_tables",
                        lambda self, x: built.append(x) or build(self, x))
    # every point is checked before the first table, wherever x stands
    for points in ([x], [1, 2, x], [x, 1]):
        with pytest.raises(InvalidArgument, match=rf"point {x} outside \[1, 8\]"):
            fam.bind(points)
    assert built == []
    # a plan's evaluator refuses it too, bound or not
    evaluate = fam.bind([1])(np.arange(fam.seed_space, dtype=np.uint64))
    with pytest.raises(InvalidArgument, match=rf"point {x} outside \[1, 8\]"):
        evaluate(x)
    assert built == [1]


@pytest.mark.parametrize("t, alphabet", [(2, 16), (3, 64), (4, 16), (2, 512)])
def test_twise_prg_values_at_array_points_are_horner_s(monkeypatch, t, alphabet):
    # an array of points, one per seed, is evaluated by Horner whatever
    # the field; each seed's value equals scalar eval and the
    # point-table value at its coordinate
    prg = TWisePRG(t, 8, alphabet)
    rng = np.random.Generator(np.random.Philox(key=t * alphabet))
    seeds = rng.integers(0, prg.seed_space, size=256, dtype=np.uint64)
    coords = rng.integers(1, 9, size=256, dtype=np.uint64)
    muls = []
    monkeypatch.setattr(kwise, "mul_block", lambda *a: muls.append(1) or mul_block(*a))
    got = prg.coord_block(seeds, coords)
    assert got.dtype == np.uint64 and len(muls) == t - 1
    assert got.tolist() == [prg.eval(int(s), int(c)) for s, c in zip(seeds, coords)]
    read = prg.bind(range(1, 9))(seeds)
    at_points = {c: read(c) for c in range(1, 9)}
    assert got.tolist() == [int(at_points[int(c)][j]) for j, c in enumerate(coords)]


def _aligned_blocks(fam, rng, bits: int) -> list[range]:
    """Step-1 ranges of 2^bits seeds from multiples of 2^bits: the first,
    the last and one drawn in between."""
    size, blocks = 1 << bits, fam.seed_space >> bits
    return [range(start, start + size) for start in
            sorted({0, int(rng.integers(0, blocks)) << bits, (blocks - 1) << bits})]


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 10])
def test_aligned_blocks_equal_the_gather_path_and_scalar_eval(monkeypatch, t, n):
    # M < 2^n, so the mask drops field bits; seeds of 2 to 60 bits, one
    # block below 16 bits and many above; runs of 6 words down to 2,
    # with a 1-word tail run at (t, n) = (5, 3), (4, 4), (10, 4), (3, 5),
    # (5, 5), (3, 6) and (5, 6)
    fam = TWiseFamily(t, 1 << n, 1 << (n - 1))
    prg = TWisePRG(t, 1 << n, 1 << (n - 1))
    rng = np.random.Generator(np.random.Philox(key=16 * t + n))
    points = sorted({1, 1 << n, *rng.integers(1, (1 << n) + 1, size=3).tolist()})
    words = []
    monkeypatch.setattr(kwise, "seed_words", lambda *a: words.append(1) or seed_words(*a))
    plans = (fam.bind(points), prg.bind(points))
    for bits in sorted({min(fam.seed_bits, 7), min(fam.seed_bits, SCAN_CHUNK_BITS)}):
        for block in _aligned_blocks(fam, rng, bits):
            picks = rng.choice(len(block), size=8).tolist()
            packed = np.arange(block.start, block.stop, dtype=np.uint64)
            for plan in plans:
                aligned = plan(block)
                got = {x: aligned(x) for x in points}
                # no word columns are cut where every point has tables
                assert words == [] or fam.run_words == 0
                gathered = plan(packed)
                for x in points:
                    want = gathered(x)
                    assert got[x].dtype == want.dtype and np.array_equal(got[x], want), (block, x)
                    assert [int(got[x][i]) for i in picks] == [
                        fam.eval(block[i], x) for i in picks], (block, x)
                words.clear()


def test_other_blocks_and_points_past_the_budget_take_the_word_path(monkeypatch):
    # 5-wise over GF(2^4), runs of 3 and 2 words, 20 seed bits; a budget
    # of one point's tables leaves points 2 and 3 to Horner
    fam = TWiseFamily(5, domain_size=16, range_size=8)
    assert fam.run_words == 3
    monkeypatch.setattr(kwise, "POINT_TABLE_BYTES", 4096 + 256)
    plan = fam.bind([1, 2, 3])
    words = seed_words(np.arange(1 << 12, 1 << 13, dtype=np.uint64), fam.seed_columns())
    blocks = [
        range(1 << 12, 1 << 13),  # aligned
        range(3, 3 + (1 << 10)),  # unaligned start
        range(1 << 12, (1 << 12) + 3000),  # not a power of two
        range(1 << 12, 1 << 14, 2),  # a step of 2
        np.arange(1 << 12, 1 << 13, dtype=np.uint64),  # packed
        words,  # 2-D word columns
    ]
    rng = np.random.Generator(np.random.Philox(key=5))
    for seeds in blocks:
        evaluate = plan(seeds)
        ints = seed_ints(seeds, fam.seed_columns())
        picks = [0, len(ints) - 1, *rng.integers(0, len(ints), size=64).tolist()]
        for x in (1, 2, 3):
            got = evaluate(x)
            assert got.dtype == (np.uint8 if x == 1 else np.uint64) and len(got) == len(ints)
            assert [int(got[i]) for i in picks] == [fam.eval(ints[i], x) for i in picks], (
                seeds, x)
    # a block that reaches past the seed space is refused, as eval refuses its seeds
    for seeds in (range(0, 1 << 21), range(-1, 8),
                  np.arange((1 << 20) - 4, (1 << 20) + 4, dtype=np.uint64)):
        with pytest.raises(InvalidArgument, match=r"outside \[0, 2\^20\)"):
            plan(seeds)


def test_plan_tables_are_read_only_and_values_fresh():
    # 5-wise over GF(2^3): runs of 4 words and a 1-word tail, which is a
    # row of the span table
    fam = TWiseFamily(5, domain_size=8, range_size=4)
    tables = fam._run_tables(3)
    assert [len(table) for table in tables] == [1 << 12, 1 << 3]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table += 1
        with pytest.raises(ValueError, match="read-only"):
            table[:2] ^= 1
    for seeds in (range(0, 1 << 15), np.arange(1 << 15, dtype=np.uint64)):
        evaluate = fam.bind([3])(seeds)
        first = evaluate(3)
        first += 1
        assert np.array_equal(evaluate(3), first - 1)


def test_direct_sum_rejects_range_mismatch():
    f = TWiseFamily(1, domain_size=4, range_size=4)
    g = TWiseFamily(1, domain_size=4, range_size=8)
    with pytest.raises(InvalidArgument, match="range sizes differ: 4 vs 8"):
        DirectSumFamily(f, g)


def _direct_sum_blocks(monkeypatch, family) -> list:
    """(summand, block) for every block that plans of ``family``, bound
    from now on, hand their summands' plans."""
    seen = []
    for name in ("low", "high"):
        summand = getattr(family, name)

        def spy_bind(points, name=name, bind=summand.bind):
            plan = bind(points)
            return lambda seeds: seen.append((name, seeds)) or plan(seeds)

        monkeypatch.setattr(summand, "bind", spy_bind)
    return seen


@pytest.mark.parametrize("seeds, low, high", [
    # whole runs of 2^9 seeds, not block 0: the low summand's whole space
    (range(3 << 9, 7 << 9), range(0, 1 << 9), range(3, 7)),
    # inside one run: the low summand reads from lo = start mod 2^9
    (range((5 << 9) + 17, (5 << 9) + 300), range(17, 300), range(5, 6)),
    # every other block is cut into word columns
    (range((3 << 9) + 100, (5 << 9) + 7), None, None),  # unaligned
    (range(1 << 9, 3 << 9, 2), None, None),  # stepped
    (range((1 << 15) - (1 << 9), (1 << 15) + (1 << 9)), None, None),  # past the space
    (np.arange(1000, 3000, 3, dtype=np.uint64), None, None),  # packed
    (split_words(range(7 << 9, 9 << 9), (3,) * 5), None, None),  # word columns
])
def test_direct_sum_plan_matches_scalar_eval(monkeypatch, seeds, low, high):
    # a 3-wise low summand over GF(2^3), 9 seed bits, and a 2-wise high one
    d = DirectSumFamily(TWiseFamily(3, 8, 8), TWiseFamily(2, 8, 8))
    assert d.low.seed_bits == 9 and d.seed_bits == 15
    seen = _direct_sum_blocks(monkeypatch, d)
    points = range(1, 9)
    if isinstance(seeds, range) and seeds.stop > d.seed_space:
        # refused before either summand sees a block, as eval refuses the seeds
        with pytest.raises(InvalidArgument, match=r"seed 0x81ff outside \[0, 2\^15\)"):
            d.bind(points)(seeds)
        assert seen == []
        return
    evaluate = d.bind(points)(seeds)
    got = {x: evaluate(x) for x in points}
    if low is None:
        assert [(name, block.shape) for name, block in seen] == [
            ("low", (len(seeds), 3)), ("high", (len(seeds), 2))]
    else:
        assert seen == [("low", low), ("high", high)]
    ints = seed_ints(seeds, d.seed_columns())
    for x in points:
        assert got[x].tolist() == [d.eval(s, x) for s in ints]


def test_direct_sum_preserves_pair_marginals():
    # N=4, M=4, t=2: for every fixed g-seed, sweeping the f-seed keeps
    # every pair of positions jointly uniform
    f = TWiseFamily(2, domain_size=4, range_size=4)
    g = TWiseFamily(1, domain_size=4, range_size=4)
    d = DirectSumFamily(f, g)
    f_seeds = np.arange(f.seed_space, dtype=np.uint64)
    for g_seed in range(g.seed_space):
        seeds = f_seeds | np.uint64(g_seed << f.seed_bits)
        for xa, xb in itertools.combinations(range(1, 5), 2):
            va = d.eval_block(seeds, xa) - 1
            vb = d.eval_block(seeds, xb) - 1
            counts = np.bincount((va * np.uint64(4) + vb).astype(np.int64), minlength=16)
            assert counts.min() == counts.max()


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_eval_pure_and_in_range(seed, x):
    fam = TWiseFamily(2, domain_size=4, range_size=4)
    seed %= fam.seed_space
    v = fam.eval(seed, x)
    assert 1 <= v <= 4
    assert fam.eval(seed, x) == v


class _Width(kwise.SeededFamily):
    """A family of ``seed_bits``-bit seeds, for scans that read no value."""

    domain_size = range_size = 1
    family_id = "width"

    def __init__(self, seed_bits: int):
        self.seed_bits = seed_bits

    def eval(self, seed, x):
        return 1


def test_the_default_plan_refuses_blocks_past_the_seed_space():
    # the scalar loop rebuilds each seed from its words, which hold only
    # their bits, so the plan checks the block itself
    plan = _Width(3).bind([1])
    assert plan(range(8))(1).tolist() == [1] * 8
    for seeds in (range(4, 12), np.array([1, 8], dtype=np.uint64)):
        with pytest.raises(InvalidArgument, match=r"seed 0x[8b] outside \[0, 2\^3\)"):
            plan(seeds)
    # so does every generator's plan, whose word columns would otherwise
    # drop a seed's bits past the seed space
    for prg in (FullIndependencePRG(2, 4), TWisePRG(2, 4, 4), RecursiveMixPRG(2, 4)):
        top, plan = prg.seed_space, prg.bind([1])
        assert len(plan(range(top))(1)) == top
        for seeds in (range(top - 2, top + 2), np.array([1, top], dtype=np.uint64)):
            with pytest.raises(InvalidArgument, match=rf"seed {max(seeds):#x} outside "
                                                      rf"\[0, 2\^{prg.seed_bits}\)"):
                plan(seeds)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed_bits,chunk_bits", [(5, 2), (3, 20), (0, 20)])
def test_scan_seeds_counts_every_seed_once(seed_bits, chunk_bits, threads):
    def count(seeds):
        # a block is the range of its consecutive seeds, never an array
        assert isinstance(seeds, range) and seeds.step == 1
        assert 0 < len(seeds) <= 1 << chunk_bits
        return np.bincount(seeds, minlength=1 << seed_bits)

    with scan_chunk_bits(chunk_bits):
        hist, seen = scan(_Width(seed_bits), count, threads=threads)
    assert hist.tolist() == [1] * (1 << seed_bits) and seen == 1 << seed_bits


def test_scan_seeds_checks_the_budget_before_the_first_block():
    calls = []

    def count(seeds):
        calls.append(len(seeds))
        return 0

    assert scan(_Width(24), count) == (0, 1 << 24)  # at the budget: every block reaches count
    assert calls == [1 << SCAN_CHUNK_BITS] * (1 << (24 - SCAN_CHUNK_BITS))
    with pytest.raises(SeedSpaceTooLarge):
        scan(_Width(25), count)  # over it: refused before the first count
    assert len(calls) == 1 << (24 - SCAN_CHUNK_BITS)


@pytest.mark.parametrize("widths, dtype", [((3, 5), np.uint8), ((9, 4, 7), np.uint16),
                                           ((32, 32), np.uint32), ((), np.uint8)])
def test_seed_words_cuts_packed_blocks_and_passes_word_blocks(widths, dtype):
    rng = np.random.Generator(np.random.Philox(key=len(widths)))
    packed = rng.integers(0, 1 << sum(widths), size=500, dtype=np.uint64)
    words = seed_words(packed, widths)
    # one contiguous column per word, low bits first, in the narrowest dtype
    assert words.shape == (500, len(widths)) and words.dtype == dtype
    assert words.flags.f_contiguous
    assert np.array_equal(words, split_words(packed, widths))
    # a range of seeds is cut as its packed array
    stop = min(1500, 1 << sum(widths))
    span = range(max(0, stop - 500), stop)
    from_range = seed_words(span, widths)
    assert from_range.dtype == dtype and from_range.flags.f_contiguous
    assert np.array_equal(from_range, seed_words(np.arange(span.start, span.stop,
                                                           dtype=np.uint64), widths))
    # a block of word columns is already in the one form
    assert seed_words(words, widths) is words
    with pytest.raises(InvalidArgument, match="word columns"):
        seed_words(words, widths + (1,))


@pytest.mark.parametrize("seeds, offset, runs", [
    (range(0, 1 << 16), 11, (range(0, 32), 1 << 11)),          # an exhaustive block
    (range(3 << 16, 4 << 16), 16, (range(3, 4), 1 << 16)),     # one value, aligned
    (range(0x5A5 << 16, 0x5A6 << 16), 20, (range(0x5A, 0x5B), 1 << 16)),  # inside one run
    (range(0x5A5 << 16 | 7, 0x5A5 << 16 | 900), 16, (range(0x5A5, 0x5A6), 893)),
    (range(6 << 4, 10 << 4), 4, (range(6, 10), 16)),           # aligned, length not 2^B
    (range(5, 2000), 4, None),                                 # unaligned, several runs
    (range(0, 1 << 12, 2), 4, None),                           # a step-2 range
    (range(0), 4, None),
    (np.arange(1 << 12, dtype=np.uint64), 4, None),           # an array, even consecutive
    (range(0, 40), 0, (range(0, 40), 1)),
])
def test_seed_runs_reads_a_range_cut_at_its_runs_or_nothing(seeds, offset, runs):
    assert kwise.seed_runs(seeds, offset) == runs
    if runs is not None:
        values, repeat = runs
        assert [s >> offset for s in seeds] == [v for v in values for _ in range(repeat)]


def test_scan_is_the_one_seed_source_of_both_modes():
    fam = TWiseFamily(2, 4, 8)  # 6 seed bits

    def seen(seeds):
        # an exhaustive block is a range, a Monte-Carlo block an array
        return np.bincount(np.asarray(seeds, dtype=np.int64), minlength=fam.seed_space)

    hist, total = scan(fam, seen)
    assert total == fam.seed_space and hist.tolist() == [1] * fam.seed_space
    # a sample count counts the rows of one Philox draw keyed by the run
    # seed, here one block, the whole draw chunk, whatever the block size
    drawn = fam.layout.draw_block(Philox(5), 1001)
    with scan_chunk_bits(3):
        hist, total = scan(fam, seen, samples=1001, run_seed=5, threads=2)
    assert total == 1001 and np.array_equal(hist, seen(drawn))
    with pytest.raises(InvalidArgument, match="positive sample count"):
        scan(fam, seen, samples=0)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("run_seed", [-1, 1 << 130])
def test_scan_refuses_a_run_seed_outside_128_bits(run_seed, threads):
    # the key is checked by the calling process, before any block is drawn
    with pytest.raises(InvalidArgument, match=r"outside \[0, 2\^128\)"):
        scan(TWiseFamily(2, 4, 8), len, samples=10, run_seed=run_seed, threads=threads)


def _chunked_draw(fam, samples: int, run_seed: int) -> np.ndarray:
    """The Monte-Carlo sample as scan defines it, drawn here independently:
    chunk j is 2^MC_DRAW_BITS rows (fewer for the last) off Philox keyed by
    the run seed and jumped j times."""
    width = 1 << MC_DRAW_BITS
    return np.concatenate([
        fam.layout.draw_block(Philox(run_seed).jumped(j), min(width, samples - lo))
        for j, lo in enumerate(range(0, samples, width))])


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("chunk_bits", [10, 16, 20])
def test_mc_scan_counts_the_chunked_draw_at_any_block_size(chunk_bits, threads):
    # three draw chunks, the last one short: every Monte-Carlo block is
    # one count slice of 2^MC_COUNT_BITS rows of a chunk, whatever the
    # exhaustive block size.  At 3 threads the 9 slices split 3/3/3, so
    # two workers start inside a chunk
    fam = TWiseFamily(2, 4, 8)
    samples = (1 << 17) + 1001
    assert MC_COUNT_BITS == 14

    def seen(seeds):
        return np.bincount(seeds.astype(np.int64), minlength=fam.seed_space)

    sliced = []

    def seen_and_sized(seeds):
        # the counts, then how many slices had each length, and in all
        sliced.append(len(seeds))
        return np.append(seen(seeds), [len(seeds) == 1 << 14, len(seeds) == 1001, 1])

    # each count slice is drawn once, on its own, by the process that
    # counts it: never by the parent of the forked workers
    drawn, draw = [], SeedLayout.draw_block

    def draw_slice(layout, stream, count, lo, hi):
        drawn.append((count, lo, hi))
        return draw(layout, stream, count, lo, hi)

    with pytest.MonkeyPatch.context() as mp, scan_chunk_bits(chunk_bits):
        mp.setattr(SeedLayout, "draw_block", draw_slice)
        hist, total = scan(fam, seen_and_sized, samples=samples, run_seed=12,
                           threads=threads)
    assert total == samples
    assert hist[-3:].tolist() == [8, 1, 9]
    assert drawn == ([(1 << 16, lo, lo + (1 << 14)) for lo in range(0, 1 << 16, 1 << 14)] * 2
                     + [(1001, 0, 1001)] if threads == 1 else [])
    assert sliced == ([1 << 14] * 8 + [1001] if threads == 1 else [])
    assert np.array_equal(hist[:-3], seen(_chunked_draw(fam, samples, 12)))


def test_mc_scan_counts_the_chunked_draw_of_a_2d_layout():
    # 95 packed seed bits: each chunk is a 2-D block of 17 word columns of
    # at most 7 bits; the count is a histogram of each word
    fam = BucketedKMinwiseFamily(ConstructionParams(N=12, M=64, k=2, ell=4, t=2),
                                 TWisePRG(2, 4, 64), TWisePRG(1, 12, 64), LeftoverHash(7, 6))
    assert fam.seed_bits == 95
    samples = (1 << 17) + 1001

    def word_counts(seeds):
        assert seeds.shape[1:] == (17,)
        return np.concatenate([np.bincount(col.astype(np.int64), minlength=128)
                               for col in seeds.T])

    with scan_chunk_bits(15):
        hist, total = scan(fam, word_counts, samples=samples, run_seed=3, threads=2)
    assert total == samples
    assert np.array_equal(hist, word_counts(_chunked_draw(fam, samples, 3)))


# --- forked scan workers ------------------------------------------------------


@pytest.mark.parametrize("threads,blocks,forks", [
    (1, 5, 0), (2, 1, 0), (2, 2, 2), (2, 7, 2), (3, 2, 2), (4, 9, 4)])
def test_scan_forks_one_worker_per_contiguous_range(monkeypatch, threads, blocks, forks):
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    parent = os.getpid()

    def pid_at(i: int):
        # the pid that counted block i, in cell i
        cells = np.zeros(blocks, dtype=np.int64)
        cells[i] = os.getpid()
        return cells

    pids = scan_blocks(blocks, lambda i: i, pid_at, threads).tolist()
    assert len(forked) == forks
    if forks:
        # the parent counts nothing; worker w counts the w-th range
        assert parent not in pids
        assert pids == sorted(pids, key=pids.index)
        assert [len(list(run)) for _, run in itertools.groupby(pids)] == [
            blocks * (w + 1) // forks - blocks * w // forks for w in range(forks)]
    else:
        assert pids == [parent] * blocks


def test_a_large_sum_comes_back_whole():
    # 1 MiB from each worker: more than a pipe holds before it is read
    with deadline(20):
        total = scan_blocks(4, lambda i: i, lambda i: np.full(1 << 17, i, dtype=np.int64), 2)
    assert total.tolist() == [6] * (1 << 17)


@pytest.mark.parametrize("bad_block", [0, 3])
def test_a_worker_exception_is_raised_again_with_its_type(bad_block):
    def count(seeds):
        if seeds[0] == bad_block << 2:
            raise InvalidArgument(f"bad block at seed {seeds[0]}")
        return 1

    with deadline(20), scan_chunk_bits(2), pytest.raises(
            InvalidArgument, match=f"bad block at seed {bad_block * 4}"):
        scan(_Width(4), count, threads=2)


def test_a_failed_scan_kills_the_workers_still_counting():
    # block 0 fails at once; the other worker would count for minutes
    def count(i):
        if i == 0:
            raise InvalidArgument("block 0 failed")
        time.sleep(60)
        return 1

    with deadline(20), pytest.raises(InvalidArgument, match="block 0 failed"):
        scan_blocks(4, lambda i: i, count, threads=2)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise pickle.PicklingError("not this one")


def test_an_exception_that_cannot_be_sent_keeps_its_name_and_message():
    def count(seeds):
        raise _Unpicklable("lost in transit")

    with deadline(20), scan_chunk_bits(2), pytest.raises(
            ScanWorkerFailed, match="_Unpicklable: lost in transit"):
        scan(_Width(4), count, threads=2)


def test_a_worker_that_dies_without_a_result_raises_instead_of_hanging():
    parent = os.getpid()

    def count(seeds):
        if os.getpid() != parent and seeds[0] == 0:
            os._exit(1)
        return 1

    with deadline(20), scan_chunk_bits(2), pytest.raises(ScanWorkerFailed, match="exit code 1"):
        scan(_Width(4), count, threads=2)


def _state(pid: int) -> str | None:
    """The process state letter of ``pid`` from /proc, None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_of_a_killed_scan_stop_at_their_next_block():
    # a scan in a child of the test, killed while its workers count slow
    # blocks: each worker finds its parent gone and exits
    read, write = os.pipe()
    if (scanner := os.fork()) == 0:
        try:
            os.close(read)

            def count(i):
                if i in (0, 1000):  # the first block of each worker
                    os.write(write, os.getpid().to_bytes(4, "little"))
                time.sleep(0.05)
                return 1

            scan_blocks(2000, lambda i: i, count, threads=2)
        finally:
            os._exit(0)
    os.close(write)
    try:
        workers = set()
        while len(workers) < 2:
            pid = os.read(read, 4)
            assert len(pid) == 4, "the scan ended before both workers counted"
            workers.add(int.from_bytes(pid, "little"))
    finally:
        os.kill(scanner, signal.SIGKILL)
        os.waitpid(scanner, 0)
        os.close(read)
    until = time.monotonic() + 10
    while any(_state(pid) not in (None, "Z") for pid in workers):
        assert time.monotonic() < until, "a worker outlived its parent's scan"
        time.sleep(0.02)
