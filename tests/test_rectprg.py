"""Tests for rectangle predicates, baseline PRGs, and the error oracles."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from blocksize import mc_count_bits, scan_chunk_bits
from seed_rows import seed_ints
from minwise_lab.cli import main, run_component_tests
from minwise_lab.errors import InvalidArgument, SeedSpaceTooLarge
from minwise_lab.gf2 import find_irreducible
from minwise_lab.rectprg import (
    FullIndependencePRG,
    PRGHashFamily,
    Rectangle,
    RecursiveMixPRG,
    TWisePRG,
    rectangle_error,
    rectangle_hits_exact,
    strict_order_margins,
    threshold_errors,
)
from reference_rectprg import (
    ConditionNeverHolds,
    at_most_rectangle,
    conditional_rectangle_check,
    expand,
    full_rectangle,
    restricted_to,
    threshold_rectangle,
)


def test_rectangle_uniform_expectation():
    r = Rectangle.build(3, 4, {1: {1, 2}, 3: {4}})
    assert r.uniform_expectation() == Fraction(2, 4) * Fraction(1, 4)
    assert full_rectangle(3, 4).uniform_expectation() == 1
    assert Rectangle.build(2, 4, {1: set()}).uniform_expectation() == 0


def test_threshold_rectangle_sets():
    r = threshold_rectangle(3, 8, 5)
    assert all(s == frozenset({6, 7, 8}) for s in r.accept_sets)
    r2 = threshold_rectangle(3, 8, 5, coords=[2])
    assert r2.accept_sets[0] is None and r2.accept_sets[2] is None
    r3 = at_most_rectangle(3, 8, 2, coords=[1, 2])
    assert r3.accept_sets[0] == frozenset({1, 2})


def test_full_independence_expand_is_identity_chunking():
    prg = FullIndependencePRG(4, 8)
    assert prg.seed_bits == 12
    seed = 0b101_000_111_010
    assert expand(prg, seed) == (0b010 + 1, 0b111 + 1, 0b000 + 1, 0b101 + 1)


@pytest.mark.parametrize("dimension", [0, -1])
def test_full_independence_needs_a_coordinate(dimension):
    # a dimension below 1 would give a negative seed width
    with pytest.raises(InvalidArgument):
        FullIndependencePRG(dimension, 4)


def test_full_independence_rectangle_error_zero():
    prg = FullIndependencePRG(3, 4)
    for theta in range(5):
        assert rectangle_error(prg, threshold_rectangle(3, 4, theta)) == 0.0
    mixed = Rectangle.build(3, 4, {1: {2, 3}, 2: {1}, 3: {1, 2, 4}})
    assert rectangle_error(prg, mixed) == 0.0


def test_empty_accept_set_gives_zero_error():
    prg = TWisePRG(2, 3, 4)
    rect = Rectangle.build(3, 4, {2: set()})
    assert rectangle_error(prg, rect) == 0.0


def test_twise_prg_coordinates_match_family():
    prg = TWisePRG(2, 3, 4)
    for seed in range(prg.seed_space):
        vec = expand(prg, seed)
        for i in range(1, 4):
            assert vec[i - 1] == prg.family.eval(seed, i)


def test_twise_prg_rectangles_within_t_coords_exact():
    # rectangles touching <= t coordinates are fooled exactly
    prg = TWisePRG(2, 4, 4)
    for coords in itertools.combinations(range(1, 5), 2):
        for vals in itertools.product([{1}, {2, 4}], repeat=2):
            rect = Rectangle.build(4, 4, dict(zip(coords, vals)))
            assert rectangle_error(prg, rect) == 0.0


def test_pairwise_threshold_error_frozen_n3_m4():
    # pairwise baseline, N=3, M=4, threshold rectangle 1(x_i > theta):
    # oracle below recomputes the polynomial family by hand
    prg = TWisePRG(2, 3, 4)
    ctx = find_irreducible(2)
    for theta in (1, 2):
        rect = threshold_rectangle(3, 4, theta)
        hits = 0
        for a0 in range(4):
            for a1 in range(4):
                # degree-1 polynomial a1*chi + a0 at chi = x - 1; for M = 4
                # the low-2-bit truncation is the whole field element
                vals = [((a0 ^ ctx.mul(a1, x - 1)) & 3) + 1 for x in (1, 2, 3)]
                if all(v > theta for v in vals):
                    hits += 1
        want = abs(Fraction(hits, 16) - Fraction(4 - theta, 4) ** 3)
        assert rectangle_error(prg, rect) == pytest.approx(float(want))
    # frozen values from the oracle above: theta=1 hits 6 of 16 seeds
    # (uniform would be 27/64); theta=2 hits exactly 2 = 16/8, because
    # any a1 != 0 spreads three distinct values over a 2-element target
    assert rectangle_error(prg, threshold_rectangle(3, 4, 1)) == pytest.approx(3 / 64)
    assert rectangle_error(prg, threshold_rectangle(3, 4, 2)) == 0.0


def test_recursive_mix_matches_straightline_reference():
    prg = RecursiveMixPRG(4, 4)
    assert prg.seed_bits == 2 + 2 * 4
    ctx = prg.ctx

    def reference(seed: int) -> tuple[int, ...]:
        x = seed & 3
        a1, b1 = (seed >> 2) & 3, (seed >> 4) & 3
        a2, b2 = (seed >> 6) & 3, (seed >> 8) & 3
        h1 = ctx.mul(a1, x) ^ b1
        h2 = ctx.mul(a2, x) ^ b2
        h21 = ctx.mul(a2, h1) ^ b2
        # coordinate j reads the cell along the bit path of j-1
        cells = (x, h1, h2, h21)
        return tuple((c & 3) + 1 for c in cells)

    for seed in range(prg.seed_space):
        assert expand(prg, seed) == reference(seed)


def test_recursive_mix_block_matches_scalar():
    for dimension in (8, 16):
        prg = RecursiveMixPRG(dimension, 4)
        seeds = np.arange(prg.seed_space, dtype=np.uint64)
        for coord in range(1, dimension + 1):
            # a scalar coordinate hashes only at its path's set bits; an
            # array of coordinates selects per seed
            block = prg.coord_block(seeds, coord)
            per_seed = prg.coord_block(seeds, np.full(len(seeds), coord, dtype=np.uint64))
            assert np.array_equal(block, per_seed)
            for s in range(0, prg.seed_space, 97):
                assert int(block[s]) == prg.coord_eval(s, coord)


def test_expand_checks_seed_length():
    prg = FullIndependencePRG(2, 4)
    with pytest.raises(InvalidArgument, match=r"seed 0x10 outside \[0, 2\^4\)"):
        expand(prg, 1 << prg.seed_bits)


def test_exhaustive_budget_enforced():
    prg = FullIndependencePRG(13, 4)  # 26 seed bits
    with pytest.raises(SeedSpaceTooLarge):
        rectangle_error(prg, full_rectangle(13, 4))
    # monte-carlo opt-in still works
    err = rectangle_error(
        prg, threshold_rectangle(13, 4, 2), samples=20000, run_seed=3
    )
    assert 0.0 <= err < 0.02


def test_mc_mode_reproducible():
    prg = TWisePRG(2, 4, 8)
    rect = threshold_rectangle(4, 8, 3)
    a = rectangle_error(prg, rect, samples=5000, run_seed=11)
    b = rectangle_error(prg, rect, samples=5000, run_seed=11)
    assert a == b


# --- the margins of one (max, min) histogram per seed space ---------------

SMALL_PRGS = {
    "fullind": lambda: FullIndependencePRG(3, 4),
    "twise": lambda: TWisePRG(2, 4, 8),
    "recmix": lambda: RecursiveMixPRG(4, 4),
}


@pytest.mark.parametrize("groups", [((), (1, 2, 3)), ((2,), (1, 3)), ((1, 3), (2,))],
                         ids=["min-only", "k1", "k2"])
@pytest.mark.parametrize("kind", sorted(SMALL_PRGS))
def test_order_statistic_tails_count_every_pair(kind, groups):
    # strict_order_margins against the expanded outputs of every seed; the
    # max over no coordinates is 0, so min-only counts the law of the min
    prg = SMALL_PRGS[kind]()
    low, high = groups
    outs = np.array([expand(prg, s) for s in range(prg.seed_space)])
    a = outs[:, [i - 1 for i in low]].max(axis=1) if low else np.zeros(len(outs), int)
    b = outs[:, [i - 1 for i in high]].min(axis=1)
    want = _margins(a, b, prg.alphabet)
    for chunk_bits, threads in ((20, 1), (3, 1), (3, 2)):
        with scan_chunk_bits(chunk_bits):
            got = strict_order_margins(prg, low, high, threads=threads)
        assert got[2] == prg.seed_space
        assert [m.tolist() for m in got[:2]] == want


def _margins(a, b, M: int) -> list[list[int]]:
    """[at_max, at_min] of the seeds with a < b, counted one value at a time."""
    return [[int(np.count_nonzero((a < b) & (margin == v))) for v in range(M + 1)]
            for margin in (a, b)]


def _drawn(prg, samples, run_seed):
    """The packed seeds monte-carlo mode draws: one Philox integers call."""
    rng = np.random.Generator(np.random.Philox(key=run_seed))
    return rng.integers(0, 1 << prg.seed_bits, size=samples, dtype=np.uint64)


@pytest.mark.parametrize("kind", sorted(SMALL_PRGS))
def test_mc_order_statistic_tails_do_not_depend_on_the_block_split(kind):
    prg = SMALL_PRGS[kind]()
    samples, run_seed = 3001, 5
    outs = np.array([expand(prg, int(s)) for s in _drawn(prg, samples, run_seed)])
    want = _margins(outs[:, 0], outs[:, 1:].min(axis=1), prg.alphabet)
    # the one draw chunk counted whole or in slices of 1, 8 or 2^14 rows
    for count_bits in (0, 3, 14, 16):
        for chunk_bits, threads in ((20, 1), (3, 1), (3, 2)):
            with scan_chunk_bits(chunk_bits), mc_count_bits(count_bits):
                got = strict_order_margins(prg, [1], range(2, prg.dimension + 1),
                                           samples=samples, run_seed=run_seed,
                                           threads=threads)
            assert got[2] == samples
            assert [m.tolist() for m in got[:2]] == want, (count_bits, chunk_bits, threads)


THRESHOLD_PRGS = {
    **SMALL_PRGS,
    "twise3": lambda: TWisePRG(3, 8, 8),
    "recmix-wide": lambda: RecursiveMixPRG(8, 4),
}
SAMPLING = {"exhaustive": {}, "mc": {"samples": 3000, "run_seed": 17}}


@pytest.mark.parametrize("mode", sorted(SAMPLING))
@pytest.mark.parametrize("kind", sorted(THRESHOLD_PRGS))
def test_threshold_errors_match_rectangle_error(kind, mode):
    prg = THRESHOLD_PRGS[kind]()
    M = prg.alphabet
    thetas = list(range(M + 1)) + [M + 3]
    want = [rectangle_error(prg, threshold_rectangle(prg.dimension, M, t), **SAMPLING[mode])
            for t in thetas]
    assert threshold_errors(prg, thetas, **SAMPLING[mode]) == want
    assert any(want) == (kind != "fullind" or mode == "mc")
    # a threshold below 0 names no rectangle
    with pytest.raises(InvalidArgument):
        threshold_rectangle(prg.dimension, M, -1)
    with pytest.raises(InvalidArgument):
        threshold_errors(prg, [0, -1], **SAMPLING[mode])


@pytest.mark.parametrize("mode", sorted(SAMPLING))
def test_prg_test_rows_match_rectangle_error(mode, tmp_path):
    prg = RecursiveMixPRG(8, 4)
    params = {"prg": {"kind": "recursive_mix"}, "dimension": 8, "alphabet": 4,
              "mode": mode, "thresholds": [0, 1, 2, 3, 4], **SAMPLING[mode]}
    run_component_tests("prg", params, out_dir=tmp_path)
    rows = json.loads((tmp_path / "prg_report.json").read_text())["thresholds"]
    # the report holds each exact error as a float
    assert rows == [
        {"theta": t, "error": float(rectangle_error(prg, threshold_rectangle(8, 4, t),
                                                    **SAMPLING[mode]))}
        for t in range(5)
    ]


# --- conditional checks ------------------------------------------------------


def test_conditional_full_independence_zero():
    prg = FullIndependencePRG(3, 4)
    rect = Rectangle.build(3, 4, {1: {1, 2}, 3: {2, 3, 4}})
    for alpha in range(1, 5):
        assert conditional_rectangle_check(prg, 2, alpha, rect) == 0.0


def test_conditional_all_ones_rectangle_zero():
    prg = TWisePRG(2, 3, 4)
    rect = full_rectangle(3, 4)
    assert conditional_rectangle_check(prg, 1, 2, rect) == 0.0


def test_conditional_twise_exact_value():
    # t-wise baseline at N=3, M=4: exact conditional error, frozen via an
    # independent conditioned enumeration
    prg = TWisePRG(2, 3, 4)
    rect = threshold_rectangle(3, 4, 2, coords=[1, 3])
    alpha = 1
    matching = [s for s in range(prg.seed_space) if prg.coord_eval(s, 2) == alpha]
    hits = sum(
        1
        for s in matching
        if prg.coord_eval(s, 1) > 2 and prg.coord_eval(s, 3) > 2
    )
    want = abs(Fraction(hits, len(matching)) - Fraction(2, 4) ** 2)
    got = conditional_rectangle_check(prg, 2, alpha, rect)
    assert got == pytest.approx(float(want))


def test_conditional_never_holds():
    # a generator whose coordinate 2 never emits the value 2 makes the
    # conditioning event empty
    class StuckPRG(FullIndependencePRG):
        def coord_eval(self, seed, coord):
            v = super().coord_eval(seed, coord)
            return 1 if coord == 2 and v == 2 else v

        def coord_block(self, seeds, coords):
            vals = super().coord_block(seeds, coords)
            if isinstance(coords, (int, np.integer)) and coords == 2:
                vals = np.where(vals == 2, np.uint64(1), vals)
            return vals

    prg = StuckPRG(3, 4)
    with pytest.raises(ConditionNeverHolds):
        conditional_rectangle_check(prg, 2, 2, full_rectangle(3, 4))


def test_conditional_error_bounded_by_measured_algebra():
    # the conditional error is at most
    # (joint additive error + E_U[f] * point additive error) / Pr[s_j = a],
    # all quantities measured exactly — the displayed algebra of the
    # conditional-rectangle fact
    prg = RecursiveMixPRG(4, 4)
    rect = threshold_rectangle(4, 4, 1, coords=[1, 3, 4])
    j = 2
    for alpha in range(1, 5):
        point = Rectangle.build(4, 4, {j: {alpha}})
        joint = restricted_to(rect, j, {alpha})
        jh, tot = rectangle_hits_exact(prg, joint)
        ph, _ = rectangle_hits_exact(prg, point)
        if ph == 0:
            continue
        p_alpha = Fraction(ph, tot)
        delta_joint = abs(Fraction(jh, tot) - Fraction(1, 4) * rect.uniform_expectation())
        delta_point = abs(p_alpha - Fraction(1, 4))
        bound = (delta_joint + rect.uniform_expectation() * delta_point) / p_alpha
        got = conditional_rectangle_check(prg, j, alpha, rect)
        assert got <= bound


# --- PRG as hash family -------------------------------------------------------


def test_prg_hash_family_adapter():
    prg = TWisePRG(2, 4, 8)
    fam = PRGHashFamily(prg)
    assert fam.domain_size == 4 and fam.range_size == 8
    seeds = np.arange(fam.seed_space, dtype=np.uint64)
    for x in range(1, 5):
        assert np.array_equal(fam.eval_block(seeds, x), prg.coord_block(seeds, x))
        assert fam.eval(5, x) == prg.coord_eval(5, x)


def test_mc_draws_packed_seeds_up_to_64_bits():
    # 64 seed bits (t = 8 over GF(2^8)) still fit one packed uint64 draw:
    # one Philox integers call over [0, 2^64)
    prg = TWisePRG(8, 8, 256)
    assert prg.seed_bits == 64
    seeds = _drawn(prg, 500, 3)
    mins = np.min([prg.coord_block(seeds, i) for i in range(1, 9)], axis=0)
    _, at_min, total = strict_order_margins(prg, [], range(1, 9), samples=500, run_seed=3)
    assert total == 500
    assert at_min.tolist() == [int(np.count_nonzero(mins == v)) for v in range(257)]
    # 72 bits are drawn as nine 8-bit word columns, one Philox integers
    # call per word, and counted from the scalar coordinates of each row
    wide = TWisePRG(9, 8, 256)
    rng = np.random.Generator(np.random.Philox(key=3))
    words = np.stack([rng.integers(0, 256, size=500, dtype=np.uint64) for _ in range(9)],
                     axis=1)
    wide_mins = [min(wide.coord_eval(seed, i) for i in range(1, 9))
                 for seed in seed_ints(words, (8,) * 9)]
    above = sum(m > 1 for m in wide_mins)
    uniform = Fraction(255, 256) ** 8
    assert threshold_errors(wide, [1], samples=500, run_seed=3) == [abs(Fraction(above, 500)
                                                                        - uniform)]
    # the whole law of the minimum, not only its tail above 1
    _, at_min, total = strict_order_margins(wide, [], range(1, 9), samples=500, run_seed=3)
    assert at_min.tolist() == [wide_mins.count(v) for v in range(257)]


def test_prg_test_mc_on_a_72_bit_prg_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"prg": {"kind": "twise", "t": 9}, "dimension": 256,
                               "alphabet": 256, "mode": "mc", "samples": 1000}))
    assert main(["prg-test", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
