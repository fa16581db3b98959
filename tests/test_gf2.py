"""Tests for GF(2^n) arithmetic and GF(2) linear algebra."""

from __future__ import annotations

import random

import numpy as np
import pytest

from minwise_lab.errors import InvalidArgument
from minwise_lab.gf2 import (
    TABLE_MAX_DEGREE,
    BitMatrix,
    FieldContext,
    clmul,
    find_irreducible,
    is_irreducible,
    log_tables,
    mat_vec,
    mul_block,
    poly_mod,
    rank,
)
from reference_gf2 import field_mul, kernel_basis, row_basis, rref


# --- independent oracles ---------------------------------------------------


def oracle_irreducible(f: int) -> bool:
    """Exhaustive trial division by every polynomial of degree <= n/2."""
    n = f.bit_length() - 1
    if n <= 0:
        return False
    for d in range(1, n // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if poly_mod(f, g) == 0:
                return False
    return True


def oracle_schoolbook_mul(ctx: FieldContext, a: int, b: int) -> int:
    """Field product via numpy coefficient arrays and long division."""
    n = ctx.degree
    av = np.array([(a >> i) & 1 for i in range(n)], dtype=np.int64)
    bv = np.array([(b >> i) & 1 for i in range(n)], dtype=np.int64)
    prod = np.convolve(av, bv) % 2
    mod = np.array([(ctx.modulus >> i) & 1 for i in range(n + 1)], dtype=np.int64)
    for top in range(len(prod) - 1, n - 1, -1):
        if prod[top]:
            prod[top - n : top + 1] ^= mod
    return int(sum(int(prod[i]) << i for i in range(n)))


def oracle_rank(rows: tuple[int, ...]) -> int:
    """Rank as (#rows - log2 of the count of vanishing row-subset XORs)."""
    zero_combos = sum(
        1
        for mask in range(1 << len(rows))
        if not _xor_subset(rows, mask)
    )
    # the dependent subsets form a subspace of dimension nrows - rank
    return len(rows) - (zero_combos.bit_length() - 1)


def _xor_subset(rows: tuple[int, ...], mask: int) -> int:
    acc = 0
    for i, r in enumerate(rows):
        if (mask >> i) & 1:
            acc ^= r
    return acc


# --- irreducible moduli ----------------------------------------------------


def test_find_irreducible_frozen_values():
    # frozen from the exhaustive trial-division oracle
    assert find_irreducible(1).modulus == 0b11
    assert find_irreducible(2).modulus == 0b111
    assert find_irreducible(3).modulus == 0b1011
    assert find_irreducible(4).modulus == 0b10011
    assert find_irreducible(8).modulus == 0x11B


@pytest.mark.parametrize("degree", range(1, 13))
def test_find_irreducible_is_smallest(degree):
    ctx = find_irreducible(degree)
    assert oracle_irreducible(ctx.modulus)
    smaller = [
        c
        for c in range((1 << degree) | 1, ctx.modulus, 2)
        if oracle_irreducible(c)
    ]
    assert smaller == []


@pytest.mark.parametrize("degree", range(2, 17))
def test_rabin_matches_trial_division(degree):
    rng = random.Random(degree)
    cands = [rng.randrange(1 << degree, 1 << (degree + 1)) | 1 for _ in range(40)]
    for c in cands:
        assert is_irreducible(c) == oracle_irreducible(c)


# --- field multiplication --------------------------------------------------


def test_field_mul_against_schoolbook_oracle():
    ctx = find_irreducible(8)
    rng = random.Random(0xF1E7)
    for _ in range(300):
        a, b = rng.randrange(256), rng.randrange(256)
        assert field_mul(ctx, a, b) == oracle_schoolbook_mul(ctx, a, b)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_field_axioms_exhaustive_small(degree):
    ctx = find_irreducible(degree)
    size = ctx.size
    els = range(size)
    mul = ctx.mul
    for a in els:
        for b in els:
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert mul(a, mul(b, c)) == mul(mul(a, b), c)
                assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    # multiplicative inverses: every nonzero row of the times-table hits 1
    for a in range(1, size):
        assert 1 in {mul(a, b) for b in range(1, size)}


def _mul_reference(ctx: FieldContext, a, b) -> np.ndarray:
    """Elementwise ctx.mul (clmul + poly_mod) over broadcast operands."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    out = [ctx.mul(int(x), int(y)) for x, y in zip(a.ravel(), b.ravel())]
    return np.array(out, dtype=np.uint64).reshape(a.shape)


def _order(ctx: FieldContext, g: int) -> int:
    k, v = 1, g
    while v != 1:
        v, k = ctx.mul(v, g), k + 1
    return k


def _walk_log_tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """log_tables by walking the powers of each candidate g in turn until
    one reaches q = 2^n - 1 distinct powers before returning to 1."""
    q = ctx.size - 1
    for g in range(1, ctx.size):
        powers = [1]
        while len(powers) < q and (v := ctx.mul(powers[-1], g)) != 1:
            powers.append(v)
        if len(powers) == q:  # no power of g below the q-th is 1
            break
    exp = np.zeros(4 * q + 1, dtype=np.uint64)
    exp[:q] = powers
    exp[q:2 * q] = powers
    log = np.full(ctx.size, 2 * q, dtype=np.intp)
    log[powers] = np.arange(q)
    return log, exp


@pytest.mark.parametrize("degree", range(1, 9))
def test_mul_block_every_pair(degree):
    ctx = find_irreducible(degree)
    e = np.arange(ctx.size, dtype=np.uint64)
    # a column times a row, as extract_table and criterion 1 broadcast it
    table = mul_block(ctx, e[:, None], e[None, :])
    assert table.dtype == np.uint64 and table.shape == (ctx.size, ctx.size)
    assert np.array_equal(table, _mul_reference(ctx, e[:, None], e[None, :]))
    a, b = np.repeat(e, ctx.size), np.tile(e, ctx.size)
    assert np.array_equal(mul_block(ctx, a, b), table.ravel())
    for s in (0, 1, np.uint64(ctx.size - 1), int(e[-1] // 2)):
        assert np.array_equal(mul_block(ctx, e, s), table[:, int(s)])


@pytest.mark.parametrize("degree", [2, 3, 7, 8, *range(9, 17)])
def test_mul_block_matches_scalar(degree):
    ctx = find_irreducible(degree)
    rng = np.random.Generator(np.random.Philox(key=degree))
    a = rng.integers(0, ctx.size, size=1 << 16, dtype=np.uint64)
    b = rng.integers(0, ctx.size, size=1 << 16, dtype=np.uint64)
    a[:3], b[3:6] = 0, 0
    assert np.array_equal(mul_block(ctx, a, b), _mul_reference(ctx, a, b))
    col, row = a[:64, None], b[None, :64]
    assert np.array_equal(mul_block(ctx, col, row), _mul_reference(ctx, col, row))
    for s in (0, 1, int(b[7]), np.uint64(b[8])):
        assert np.array_equal(mul_block(ctx, a[:4096], s), _mul_reference(ctx, a[:4096], s))


@pytest.mark.parametrize("degree", [17, 24, 32])
def test_mul_block_bit_serial_degrees(degree):
    ctx = find_irreducible(degree)
    rng = np.random.Generator(np.random.Philox(key=degree))
    a = rng.integers(0, ctx.size, size=2000, dtype=np.uint64)
    b = rng.integers(0, ctx.size, size=2000, dtype=np.uint64)
    assert np.array_equal(mul_block(ctx, a, b), _mul_reference(ctx, a, b))
    col, row = a[:40, None], b[None, :40]
    assert np.array_equal(mul_block(ctx, col, row), _mul_reference(ctx, col, row))
    for s in (0, 1, np.uint64(b[0])):
        assert np.array_equal(mul_block(ctx, a, s), _mul_reference(ctx, a, s))
    with pytest.raises(ValueError):
        log_tables(ctx)


@pytest.mark.parametrize("degree", range(1, 17))
def test_log_tables_invert_and_generate(degree):
    ctx = find_irreducible(degree)
    log, exp = log_tables(ctx)
    q = ctx.size - 1
    v = np.arange(1, ctx.size)
    assert np.array_equal(exp[log[v]], v)
    assert log[0] == 2 * q and len(exp) == 4 * q + 1
    assert np.array_equal(exp[q:2 * q], exp[:q]) and not exp[2 * q:].any()
    # g = exp[1] is the smallest element of order q; x is not always one
    # (0x11B, the smallest degree-8 modulus, is not primitive)
    g = int(exp[1])
    assert _order(ctx, g) == q
    assert all(_order(ctx, c) < q for c in range(1, g))


@pytest.mark.parametrize("degree", range(1, 17))
def test_log_tables_equal_the_power_walk(degree):
    ctx = find_irreducible(degree)
    log, exp = log_tables(ctx)
    ref_log, ref_exp = _walk_log_tables(ctx)
    assert log.dtype == ref_log.dtype and exp.dtype == ref_exp.dtype
    assert np.array_equal(log, ref_log) and np.array_equal(exp, ref_exp)


def test_a_field_comes_with_its_tables():
    # find_irreducible builds the log tables of every field that mul_block
    # reads them in, before it returns the field, so a scan's forked workers
    # find them built; a wider field multiplies bit-serially and builds none
    find_irreducible.cache_clear()
    log_tables.cache_clear()
    for degree in range(1, TABLE_MAX_DEGREE + 5):
        before = log_tables.cache_info().misses
        ctx = find_irreducible(degree)
        built = log_tables.cache_info().misses - before
        assert built == (degree <= TABLE_MAX_DEGREE)
        if built:
            log_tables(ctx)
            assert log_tables.cache_info().misses == before + 1


def test_mul_block_refuses_a_reducible_modulus():
    ctx = FieldContext(2, 0b101)  # x^2 + 1 = (x + 1)^2 has no generator
    with pytest.raises(ValueError):
        mul_block(ctx, np.arange(4, dtype=np.uint64), 3)


def test_clmul_known_value():
    # (x^2 + x) * (x + 1) = x^3 + x
    assert clmul(0b110, 0b11) == 0b1010


# --- matrices ---------------------------------------------------------------


def test_rank_frozen_example():
    # rows 110, 011, 101 (any one is the XOR of the other two)
    m = BitMatrix((0b110, 0b011, 0b101), 3)
    assert rank(m) == 2
    assert oracle_rank(m.rows) == 2


def test_rank_matches_subset_oracle_random():
    rng = random.Random(2024)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 8)
        rows = tuple(rng.randrange(1 << nc) for _ in range(nr))
        assert rank(BitMatrix(rows, nc)) == oracle_rank(rows)


def test_kernel_frozen_example():
    # [[1,1,0],[0,1,1]] with column j at bit j
    m = BitMatrix((0b011, 0b110), 3)
    k = kernel_basis(m)
    assert k.nrows == 1
    v = k.rows[0]
    assert v != 0
    assert mat_vec(m, v) == 0
    # exhaustive: the kernel of this matrix is exactly {000, 111}
    members = [x for x in range(8) if mat_vec(m, x) == 0]
    assert members == [0, 0b111]


def test_kernel_basis_requires_full_row_rank():
    with pytest.raises(InvalidArgument, match="matrix has rank 1 < 2 rows"):
        kernel_basis(BitMatrix((0b01, 0b01), 2))


def test_kernel_accounting_random():
    rng = random.Random(7)
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 12)
        m = BitMatrix(tuple(rng.randrange(1 << nc) for _ in range(nr)), nc)
        ind = row_basis(m)
        k = kernel_basis(ind)
        assert rank(m) + k.nrows == nc
        for v in k.rows:
            assert mat_vec(m, v) == 0


def test_kernel_basis_is_canonical():
    m = BitMatrix((0b0111, 0b1100), 4)
    assert kernel_basis(m) == kernel_basis(BitMatrix(m.rows, m.cols))


def test_rref_idempotent_and_pivots_sorted():
    rng = random.Random(99)
    for _ in range(100):
        nc = rng.randint(1, 10)
        m = BitMatrix(tuple(rng.randrange(1 << nc) for _ in range(rng.randint(1, 6))), nc)
        ech, piv = rref(m)
        assert list(piv) == sorted(piv)
        ech2, piv2 = rref(ech)
        assert ech2 == ech and piv2 == piv


def test_from_images_roundtrip():
    imgs = [0b101, 0b011, 0b110, 0b111]
    m = BitMatrix.from_images(imgs, 3)
    assert m.cols == 4 and m.nrows == 3
    for j, img in enumerate(imgs):
        assert mat_vec(m, 1 << j) == img
