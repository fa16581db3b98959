"""Tests for the polynomial t-wise families and direct_sum."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minwise_lab.errors import (
    BadSeedLength,
    DomainOverflow,
    RangeMismatch,
    SeedSpaceTooLarge,
)
from minwise_lab.gf2 import find_irreducible
from minwise_lab.kwise import TWiseFamily, direct_sum, dsum_values, scan_seeds


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
    with pytest.raises(BadSeedLength):
        fam.eval(fam.seed_space, 1)
    with pytest.raises(DomainOverflow):
        fam.eval(0, 5)
    with pytest.raises(DomainOverflow):
        fam.eval(0, 0)


def test_range_must_be_power_of_two():
    with pytest.raises(ValueError):
        TWiseFamily(2, domain_size=4, range_size=6)


def test_field_must_fit():
    ctx = find_irreducible(2)
    with pytest.raises(ValueError):
        TWiseFamily(2, domain_size=8, range_size=4, ctx=ctx)


# --- direct sum -------------------------------------------------------------


def test_direct_sum_formula_and_seed_order():
    f = TWiseFamily(1, domain_size=4, range_size=4)
    g = TWiseFamily(2, domain_size=4, range_size=4)
    d = direct_sum(f, g)
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


def test_direct_sum_rejects_range_mismatch():
    f = TWiseFamily(1, domain_size=4, range_size=4)
    g = TWiseFamily(1, domain_size=4, range_size=8)
    with pytest.raises(RangeMismatch):
        direct_sum(f, g)


def test_direct_sum_preserves_pair_marginals():
    # N=4, M=4, t=2: for every fixed g-seed, sweeping the f-seed keeps
    # every pair of positions jointly uniform
    f = TWiseFamily(2, domain_size=4, range_size=4)
    g = TWiseFamily(1, domain_size=4, range_size=4)
    d = direct_sum(f, g)
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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed_bits,chunk_bits", [(5, 2), (3, 20), (0, 20)])
def test_scan_seeds_counts_every_seed_once(seed_bits, chunk_bits, threads):
    def count(seeds):
        assert seeds.dtype == np.uint64 and len(seeds) <= 1 << chunk_bits
        return np.bincount(seeds.astype(np.int64), minlength=1 << seed_bits)

    hist = scan_seeds(seed_bits, count, chunk_bits, threads)
    assert hist.tolist() == [1] * (1 << seed_bits)


def test_scan_seeds_checks_the_budget_before_the_first_block():
    calls = []

    def count(seeds):
        calls.append(len(seeds))
        return 0

    assert scan_seeds(24, count) == 0  # at the budget: every block reaches count
    assert calls == [1 << 20] * 16
    with pytest.raises(SeedSpaceTooLarge):
        scan_seeds(25, count)  # over it: refused before the first count
    assert len(calls) == 16
