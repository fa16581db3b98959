"""Tests for the bucketed constructions: layouts, laziness, marginals."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import benchmark_module
from seed_rows import seed_ints, split_words
from minwise_lab import cli, construction, gf2, kwise
from minwise_lab.construction import (
    BucketedKMinwiseFamily,
    BucketedMinwiseFamily,
    ConstructionParams,
    SeedLayout,
    family_from_config,
    params_from_config,
    prg_from_config,
)
from minwise_lab.errors import InvalidArgument
from minwise_lab.extractor import LeftoverHash
from minwise_lab.kwise import (
    MC_DRAW_BITS,
    SCAN_CHUNK_BITS,
    TWiseFamily,
    dsum_values,
    scan,
)
from minwise_lab.philox import Philox
from minwise_lab.rectprg import FullIndependencePRG, RecursiveMixPRG, TWisePRG, threshold_errors
from minwise_lab.verify import measure_corpus
from reference_construction import design_widths, pack, target_error
from reference_philox import integers


def desk_minwise(prg1=None) -> BucketedMinwiseFamily:
    """N=M=4, four buckets, 23 packed seed bits with the default PRG1."""
    params = ConstructionParams(N=4, M=4, k=1, ell=4, t=2)
    prg1 = prg1 or TWisePRG(2, 4, 64)
    return BucketedMinwiseFamily(params, prg1, TWisePRG(1, 4, 4), LeftoverHash(7, 6))


def desk_kminwise(k: int = 1) -> BucketedKMinwiseFamily:
    """N=M=4 with the overlay family; 21 packed seed bits at k=1."""
    params = ConstructionParams(N=4, M=4, k=k, ell=4, t=2)
    return BucketedKMinwiseFamily(
        params, TWisePRG(2, 4, 4), TWisePRG(1, 4, 4), LeftoverHash(3, 2)
    )


def skeleton(fam):
    """The bucketed skeleton of a family: the min-wise family itself, or
    the k-min-wise family's low summand phi."""
    return fam.low if isinstance(fam, BucketedKMinwiseFamily) else fam


MINWISE_CONFIG = {
    "family": "minwise",
    "N": 4, "M": 4, "k": 1, "ell": 4, "t": 2,
    "prg1": {"kind": "twise", "t": 2},
    "prg2": {"kind": "twise", "t": 1},
    "extractor": {"kind": "leftover_hash", "n": 7, "m": 6},
}


def test_seed_accounting_minwise():
    fam = desk_minwise()
    assert fam.seed_bits == 23
    assert fam.layout.names() == ["g-seed", "prg1-seed", "w"]
    assert [f.width for f in fam.layout.fields] == [4, 12, 7]
    assert [f.offset for f in fam.layout.fields] == [0, 4, 16]
    assert fam.g.seed_bits + fam.prg1.seed_bits + fam.extractor.n == 23


def test_seed_accounting_kminwise():
    fam = desk_kminwise()
    assert fam.seed_bits == 21
    assert fam.layout.names() == ["g-seed", "prg1-seed", "w", "h0-seed"]
    assert [f.width for f in fam.layout.fields] == [4, 4, 3, 10]
    assert fam.high.t == 5  # (C_e + 1) * k


def test_determinism_across_instances():
    a, b = desk_minwise(), desk_minwise()
    assert a.family_id == b.family_id
    for seed in (0, 1, 0x7FFFFF, 0x5A5A5A & 0x7FFFFF):
        for x in range(1, 5):
            assert a.eval(seed, x) == b.eval(seed, x)
            assert 1 <= a.eval(seed, x) <= 4


def test_eval_block_matches_scalar_eval():
    # both ends of the seed space and a seeded sample between them
    rng = np.random.Generator(np.random.Philox(key=97))
    ends = np.arange(256, dtype=np.uint64)
    for fam in (desk_minwise(), desk_kminwise()):
        sample = rng.integers(0, fam.seed_space, size=2048, dtype=np.uint64)
        seeds = np.concatenate([ends, sample, np.uint64(fam.seed_space - 1) - ends])
        for x in range(1, 5):
            block = fam.eval_block(seeds, x)
            assert block.tolist() == [fam.eval(int(s), x) for s in seeds]


def test_plans_refuse_blocks_past_the_seed_space():
    # as eval refuses the seed; the last seeds of the space still evaluate
    for fam in (desk_minwise(), desk_kminwise()):
        plan, top = fam.bind(range(1, 5)), fam.seed_space
        assert plan(range(top - 4, top))(1).tolist() == [fam.eval(s, 1) for s in range(top - 4, top)]
        for seeds in (range(top - 4, top + 4), range(-1, 3),
                      np.array([0, top], dtype=np.uint64), np.array([-1, 0], dtype=np.int64)):
            with pytest.raises(InvalidArgument, match="outside"):
                plan(seeds)


def test_evaluation_is_lazy_in_other_buckets():
    # with a chunked PRG1, coordinate i reads only its own bit chunk, so
    # h(x) must ignore every chunk belonging to a bucket other than g(x)
    fam = desk_minwise(prg1=FullIndependencePRG(4, 64))
    assert fam.seed_bits == 4 + 24 + 7
    prg1_field = fam.layout.field("prg1-seed")
    rng = np.random.Generator(np.random.Philox(key=11))
    for seed in rng.integers(0, fam.seed_space, size=12):
        seed = int(seed)
        for x in range(1, 5):
            bucket = fam.g.eval(fam.layout.unpack(seed)["g-seed"], x)
            before = fam.eval(seed, x)
            for i in range(1, 5):
                if i == bucket:
                    continue
                for bit in range(6 * (i - 1), 6 * i):
                    flipped = seed ^ (1 << (prg1_field.offset + bit))
                    assert fam.eval(flipped, x) == before


def test_kminwise_overlay_marginals_are_exactly_uniform():
    # freezing everything but the overlay seed leaves each point's value,
    # and each pair's joint value, exactly uniform
    fam = desk_kminwise()
    h0 = fam.layout.field("h0-seed")
    rng = np.random.Generator(np.random.Philox(key=5))
    for rest in rng.integers(0, 1 << h0.offset, size=4):
        base = int(rest)
        seeds = np.asarray(
            [base | (s << h0.offset) for s in range(1 << h0.width)],
            dtype=np.uint64,
        )
        v1 = fam.eval_block(seeds, 1)
        v3 = fam.eval_block(seeds, 3)
        assert np.bincount(v1.astype(int), minlength=5)[1:].tolist() == [256] * 4
        joint = np.bincount(
            ((v1 - 1) * 4 + (v3 - 1)).astype(int), minlength=16
        )
        assert joint.tolist() == [64] * 16


def test_minwise_values_decompose_through_the_direct_sum():
    # h(x) recombines the inner family and PRG2 exactly as advertised
    fam = desk_minwise()
    for seed in (3, 1 << 16, 0x3FDE21, 0x70001F):
        seed &= fam.seed_space - 1
        parts = fam.layout.unpack(seed)
        for x in range(1, 5):
            bucket = fam.g.eval(parts["g-seed"], x)
            s = fam.prg1.coord_eval(parts["prg1-seed"], bucket) - 1
            z = fam.extractor.extract(parts["w"], s)
            want = dsum_values(
                fam.inner.eval(z & 0xF, x),
                fam.prg2.coord_eval(z >> 4, x),
                4,
            )
            assert fam.eval(seed, x) == want


def test_single_bucket_collapse():
    # ell = 1: no allocation bits, one extractor seed for everything
    params = ConstructionParams(N=4, M=4, k=1, ell=1, t=2)
    fam = BucketedMinwiseFamily(
        params, FullIndependencePRG(1, 64), TWisePRG(1, 4, 4), LeftoverHash(7, 6)
    )
    assert fam.g.seed_bits == 0
    assert fam.seed_bits == 6 + 7
    for seed in range(0, fam.seed_space, 5):
        parts = fam.layout.unpack(seed)
        z = fam.extractor.extract(
            parts["w"], fam.prg1.coord_eval(parts["prg1-seed"], 1) - 1
        )
        for x in range(1, 5):
            want = dsum_values(
                fam.inner.eval(z & 0xF, x), fam.prg2.coord_eval(z >> 4, x), 4
            )
            assert fam.eval(seed, x) == want


@given(st.integers(min_value=0, max_value=(1 << 23) - 1))
@settings(max_examples=80, deadline=None)
def test_layout_pack_unpack_round_trip(seed):
    layout = SeedLayout.build([("g-seed", (4,)), ("prg1-seed", (6, 6)), ("w", (7,))])
    assert pack(layout, layout.unpack(seed)) == seed


def test_layout_rejects_overwide_values():
    layout = SeedLayout.build([("a", (3,)), ("b", (5,))])
    assert pack(layout, {"a": 7, "b": 31}) == 7 | (31 << 3)
    with pytest.raises(InvalidArgument, match="field a value 0x8 wider than 3 bits"):
        pack(layout, {"a": 8, "b": 0})
    with pytest.raises(KeyError):
        layout.field("c")


def test_wide_seed_blocks_agree_with_scalar_path():
    # 95 packed bits: layout.draw_block fills one column per coefficient word
    params = ConstructionParams(N=12, M=64, k=2, ell=4, t=2)
    fam = BucketedKMinwiseFamily(
        params, TWisePRG(2, 4, 64), TWisePRG(1, 12, 64), LeftoverHash(7, 6)
    )
    assert fam.seed_bits == 95
    assert fam.seed_columns() == (4,) * 4 + (6, 6) + (7,) + (6,) * 10
    block = fam.layout.draw_block(Philox(21), 40)
    assert block.shape == (40, 17) and block.dtype == np.uint8
    seeds = seed_ints(block, fam.seed_columns())
    for x in (1, 7, 12):
        vals = fam.eval_block(block, x)
        for seed, got in zip(seeds, vals):
            assert fam.eval(seed, x) == got


WIDE_LAYOUTS = {
    # the 95-bit layout above
    95: [("g-seed", (4,) * 4), ("prg1-seed", (6, 6)), ("w", (7,)), ("h0-seed", (6,) * 10)],
    # the benchmark's Monte-Carlo family: N = M = 16, k = 2, PRG1 over GF(2^9)
    84: [("g-seed", (4,) * 4), ("prg1-seed", (9, 9)), ("w", (10,)), ("h0-seed", (4,) * 10)],
    # N = M = 128, k = 2: a 70-bit overlay seed, past one draw of 63 bits
    132: [("g-seed", (7,) * 4), ("prg1-seed", (11, 11)), ("w", (12,)),
          ("h0-seed", (7,) * 10)],
}


@pytest.mark.parametrize("gap", [False, True])
def test_wide_layout_draw_equals_stacked_columns(gap):
    # with a zero-width field between w and h0-seed in the second case:
    # the in-place fill must give the values of one rng.integers column per
    # field, split into its words, and of one per word past 63 bits
    for bits, fields in WIDE_LAYOUTS.items():
        if gap:
            fields = [*fields[:3], ("empty", ()), fields[3]]
        layout = SeedLayout.build(fields)
        assert layout.total_bits == bits
        rng = np.random.Generator(np.random.Philox(key=4))
        want = []
        for _, words in fields:
            width = sum(words)
            if width > 63:
                want += [rng.integers(0, 1 << w, size=1000, dtype=np.uint64)[:, None]
                         for w in words]
            elif width:
                want.append(split_words(
                    rng.integers(0, 1 << width, size=1000, dtype=np.uint64), words))
        got = layout.draw_block(Philox(4), 1000)
        assert got.dtype == np.min_scalar_type((1 << max(layout.words)) - 1)
        assert got.shape == (1000, len(layout.words))
        assert np.array_equal(got, np.concatenate(want, axis=1))


# packed layouts: a draw of at most 32 bits reads halves, a wider one words
PACKED_LAYOUTS = [[("a", (5,))], [("a", (3, 3)), ("b", (26,))], [("a", (33,))],
                  [("a", (32, 32))]]
# a field drawn as words between fields drawn as halves: after an odd
# count the half left waiting is read by the third field's row 0, past
# the words of the second
WORDS_BETWEEN = [("a", (5,)), ("b", (20, 20)), ("c", (6,)), ("d", (4,) * 20)]


def _numpy_rows(fields, count: int) -> np.ndarray:
    """The draw of ``count`` rows as numpy's Generator makes it on
    Philox(11).jumped(3): one ``integers`` per field in layout order (per
    word past 63 bits), packed up to 64 bits, else cut into word columns."""
    rng = np.random.Generator(np.random.Philox(key=11).jumped(3))

    def draw(bits):
        return rng.integers(0, 1 << bits, size=count, dtype=np.uint64)

    total = sum(sum(words) for _, words in fields)
    if total <= 64:
        return draw(total)
    cols = []
    for _, words in fields:
        for run in [words] if sum(words) <= 63 else [(w,) for w in words]:
            values, low = draw(sum(run)), 0
            for w in run:
                cols.append((values >> np.uint64(low)) & np.uint64((1 << w) - 1))
                low += w
    return np.stack(cols, axis=1)


def _slices(count: int) -> list[tuple[int, int]]:
    """Every slice of a short draw; of a long one, the 2^14-row count
    slices and slices that start or end on either half of a word."""
    if count < 50:
        return [(lo, hi) for hi in range(count + 1) for lo in range(hi + 1)]
    step = 1 << 14
    return [*((lo, min(lo + step, count)) for lo in range(0, count, step)),
            (0, 1), (0, 2), (1, 2), (1, 4), (2, 5), (12345, 40000), (25000, 25001),
            (count - 2, count), (count - 1, count), (0, count)]


@pytest.mark.parametrize("count", [1, 7, 50001])
def test_draw_block_slices_equal_numpys_rows(count):
    for fields in [*PACKED_LAYOUTS, *WIDE_LAYOUTS.values(), WORDS_BETWEEN]:
        layout, want = SeedLayout.build(fields), _numpy_rows(fields, count)
        for lo, hi in _slices(count):
            got = layout.draw_block(Philox(11).jumped(3), count, lo, hi)
            assert got.shape == want[lo:hi].shape, (fields, lo, hi)
            assert np.array_equal(got, want[lo:hi]), (fields, lo, hi)


def test_draw_block_refuses_rows_outside_its_draw():
    layout, stream = SeedLayout.build(WORDS_BETWEEN), Philox(2)
    for lo, hi in ((-1, 3), (4, 3), (0, 8)):
        with pytest.raises(InvalidArgument, match="rows"):
            layout.draw_block(stream, 7, lo, hi)
    # an odd count of narrow integers leaves a half waiting, which the
    # draw's first field reads as its row 0, as numpy's integers does
    rng = np.random.Generator(np.random.Philox(key=2))
    rng.integers(0, 1 << 5, size=3, dtype=np.uint64)
    integers(stream, 5, 3)
    want = rng.integers(0, 1 << 5, size=7, dtype=np.uint64)
    assert np.array_equal(layout.draw_block(stream, 7)[:, 0], want)


def test_param_validation():
    with pytest.raises(InvalidArgument, match="alphabet M must be a power of two"):
        ConstructionParams(N=4, M=3)            # alphabet not a power of two
    with pytest.raises(InvalidArgument, match="bucket count ell must be a power of two"):
        ConstructionParams(N=4, M=4, ell=3)     # bucket count not a power of two
    with pytest.raises(InvalidArgument, match="C_e > C_s > C_g > C >= 1, got C_e=3 C_s=3"):
        ConstructionParams(N=4, M=4, C_e=3, C_s=3)
    with pytest.raises(InvalidArgument, match=r"order k=5 outside \[1, N=4\]"):
        ConstructionParams(N=4, M=4, k=5)       # k > N
    with pytest.raises(InvalidArgument, match="order k=26 above the polylog cap 25"):
        ConstructionParams(N=32, M=4, k=26)     # k above the polylog cap
    ConstructionParams(N=32, M=4, k=25)     # at the cap, round(log2 32)^2
    # one t-wise part past PART_SEED_BITS: the overlay's words over GF(2^2)
    # from C_e, and g's two words over the field of ell from C_g
    limit = construction.PART_SEED_BITS
    ConstructionParams(N=4, M=4, C_e=limit // 2 - 1)
    with pytest.raises(InvalidArgument, match="C_e=2048: the overlay's 2049 seed words"):
        ConstructionParams(N=4, M=4, C_e=limit // 2)
    ConstructionParams(N=4, M=4, ell=1 << limit // 2)
    with pytest.raises(InvalidArgument,
                       match=r"C_g=2: the allocation's 2 seed words over GF\(2\^2049\)"):
        ConstructionParams(N=4, M=4, ell=1 << (limit // 2 + 1))


def test_component_shape_validation():
    params = ConstructionParams(N=4, M=4, k=1, ell=4, t=2)
    good = dict(prg1=TWisePRG(2, 4, 64), prg2=TWisePRG(1, 4, 4),
                extractor=LeftoverHash(7, 6))
    BucketedMinwiseFamily(params, **good)
    with pytest.raises(InvalidArgument, match="seed PRG dimension 8 != ell 4"):
        BucketedMinwiseFamily(params, TWisePRG(2, 8, 64), good["prg2"], good["extractor"])
    with pytest.raises(InvalidArgument, match="alphabet 32 does not cover the 6-bit"):
        BucketedMinwiseFamily(params, TWisePRG(2, 4, 32), good["prg2"], good["extractor"])
    with pytest.raises(InvalidArgument, match=r"inner PRG shape \(4, 8\) != \(N=4, M=4\)"):
        BucketedMinwiseFamily(params, good["prg1"], TWisePRG(1, 4, 8), good["extractor"])
    with pytest.raises(InvalidArgument, match=r"output 5 bits != inner seed 4 \+ PRG2 seed 2"):
        # extractor output must split into inner seed + PRG2 seed
        BucketedMinwiseFamily(params, TWisePRG(2, 4, 32), good["prg2"], LeftoverHash(6, 5))
    with pytest.raises(InvalidArgument, match="requires k = 1, got 2"):
        BucketedMinwiseFamily(ConstructionParams(N=4, M=4, k=2, ell=4, t=2), **good)
    with pytest.raises(InvalidArgument, match="extractor output 6 bits != PRG2 seed 2"):
        # k-min-wise wants extractor output == PRG2 seed exactly
        BucketedKMinwiseFamily(params, TWisePRG(2, 4, 64), TWisePRG(1, 4, 4),
                               LeftoverHash(7, 6))


def test_family_from_config_round_trip():
    fam = family_from_config(MINWISE_CONFIG)
    ref = desk_minwise()
    assert isinstance(fam, BucketedMinwiseFamily)
    assert fam.family_id == ref.family_id
    assert fam.eval(0x123456 & 0x7FFFFF, 2) == ref.eval(0x123456 & 0x7FFFFF, 2)


def test_family_from_config_defaults_to_kminwise_when_k_above_one():
    cfg = {
        "N": 4, "M": 4, "k": 2, "ell": 4, "t": 2,
        "prg1": {"kind": "twise", "t": 2},
        "prg2": {"kind": "twise", "t": 1},
        "extractor": {"kind": "leftover_hash", "n": 3, "m": 2},
    }
    fam = family_from_config(cfg)
    assert isinstance(fam, BucketedKMinwiseFamily)
    assert fam.high.t == 10


def test_config_validation():
    with pytest.raises(InvalidArgument, match=r"config missing required fields: \['M'\]"):
        params_from_config({"N": 4})
    with pytest.raises(InvalidArgument, match="family must be one of .*, got 'sketchy'"):
        family_from_config({**MINWISE_CONFIG, "family": "sketchy"})
    missing = dict(MINWISE_CONFIG)
    del missing["prg1"]
    with pytest.raises(InvalidArgument, match="KeyError: config needs 'prg1'"):
        family_from_config(missing)
    with pytest.raises(InvalidArgument, match="KeyError: config needs 't'"):
        prg_from_config({"kind": "twise"}, 4, 4)
    # a claimed error is a prg-test config's, not the generator's
    with pytest.raises(InvalidArgument, match="unknown key 'claimed_error'"):
        prg_from_config({"kind": "twise", "t": 2, "claimed_error": 0.1}, 4, 4)
    with pytest.raises(InvalidArgument, match="kind must be one of .*, got 'unheard_of'"):
        prg_from_config({"kind": "unheard_of"}, 4, 4)
    with pytest.raises(InvalidArgument, match="TypeError: config must be an object, got 'twise'"):
        prg_from_config("twise", 4, 4)
    assert isinstance(prg_from_config({"kind": "recursive_mix"}, 4, 4),
                      RecursiveMixPRG)


def test_design_widths_report():
    params = ConstructionParams(N=256, M=256, k=2, ell=16, t=4)
    for kind in ("minwise", "kminwise"):
        w = design_widths(params, kind)
        assert set(w) == {"source_bits", "output_bits", "per_bucket_seed_bits"}
        assert all(isinstance(v, int) and v > 0 for v in w.values())
    assert design_widths(params, "kminwise")["source_bits"] > \
        design_widths(params, "minwise")["source_bits"]
    with pytest.raises(ValueError):
        design_widths(params, "other")


def test_target_error_and_derived_degrees():
    params = ConstructionParams(N=4, M=4, k=2, ell=4, t=3)
    assert target_error(params) == 0.125
    assert params.allocation_independence == 4
    assert params.overlay_independence == 10
    assert params.inner_independence == 2


# ---------------------------------------------------------------------------
# per-point tables: the block path against the layered path and scalar eval
# ---------------------------------------------------------------------------


def _minwise(N, M, ell, prg1, prg2, ext):
    return BucketedMinwiseFamily(ConstructionParams(N=N, M=M, k=1, ell=ell, t=2),
                                 prg1, prg2, ext)


def _kminwise(N, M, ell, prg1, prg2, ext):
    return BucketedKMinwiseFamily(ConstructionParams(N=N, M=M, k=1, ell=ell, t=2),
                                  prg1, prg2, ext)


# name -> builder.  L = g-seed + prg1-seed bits against the block size
# c = SCAN_CHUNK_BITS = 16; "tiny" seed spaces are smaller than one block.
TABLE_FAMILIES = {
    "minwise L<c": lambda: _minwise(4, 4, 4, TWisePRG(1, 4, 64), TWisePRG(1, 4, 4),
                                    LeftoverHash(7, 6)),
    "minwise L=c": desk_minwise,
    "minwise L>c": lambda: desk_minwise(prg1=FullIndependencePRG(4, 64)),
    "minwise tiny": lambda: _minwise(2, 2, 2, TWisePRG(2, 2, 8), TWisePRG(1, 2, 2),
                                     LeftoverHash(4, 3)),
    "kminwise L<c": desk_kminwise,
    "kminwise L=c": lambda: _kminwise(4, 4, 4, TWisePRG(2, 4, 64), TWisePRG(3, 4, 4),
                                      LeftoverHash(7, 6)),
    "kminwise L>c": lambda: _kminwise(4, 4, 4, FullIndependencePRG(4, 64),
                                      TWisePRG(3, 4, 4), LeftoverHash(7, 6)),
    "kminwise tiny": lambda: _kminwise(2, 2, 2, TWisePRG(1, 2, 2), TWisePRG(1, 2, 2),
                                       LeftoverHash(2, 1)),
}


def _block_mismatches(fam, plan, seeds, rng) -> int:
    """Points x and seeds where ``plan`` on the block (a range or an
    array) differs from its layered path on the packed block, plus scalar
    eval at eight positions per point."""
    if isinstance(seeds, range):
        packed = np.arange(seeds.start, seeds.stop, seeds.step, dtype=np.uint64)
    elif seeds.ndim == 1:
        packed = seeds
    else:
        packed = np.asarray(seed_ints(seeds, fam.seed_columns()), dtype=np.uint64)
    # an array block always goes through the layers
    assert skeleton(fam)._sub_block_sources(packed) is None
    evaluate, reference = plan(seeds), plan(packed)
    bad = 0
    for x in range(1, fam.domain_size + 1):
        got = evaluate(x)
        bad += int(np.count_nonzero(got != reference(x)))
        for i in rng.integers(0, len(packed), size=8):
            bad += int(got[i]) != fam.eval(int(packed[i]), x)
    return bad


@pytest.mark.parametrize("name", sorted(TABLE_FAMILIES))
def test_table_path_equals_layered_path_and_scalar_eval(monkeypatch, name):
    fam = TABLE_FAMILIES[name]()
    rng = np.random.Generator(np.random.Philox(key=len(name)))
    step = 1 << SCAN_CHUNK_BITS
    points = list(range(1, fam.domain_size + 1))
    built = _spy_table_builds(monkeypatch)
    plan = fam.bind(points)
    if fam.seed_bits <= 24:
        # every block of the exhaustive scan, in scan order
        assert scan(fam, lambda seeds: _block_mismatches(fam, plan, seeds, rng))[0] == 0
        block = range(min(step, fam.seed_space))
    else:
        # aligned scan-shaped range blocks at the start, the end and in between
        for i in (0, 1, 0x5A5, (fam.seed_space >> SCAN_CHUNK_BITS) - 1):
            block = range(i * step, (i + 1) * step)
            assert _block_mismatches(fam, plan, block, rng) == 0
    # Y_x serves exactly the aligned range blocks of layouts with
    # n <= L <= SCAN_CHUNK_BITS, and the plan built it for every point
    # there; every bound point has its T_x
    phi = skeleton(fam)
    aligned = phi.extractor.n <= phi.low_bits <= SCAN_CHUNK_BITS
    assert (phi._sub_block_sources(block) is not None) == aligned
    assert [x for kind, o, x in built if kind == "Y"] == (points if aligned else [])
    assert [x for kind, o, x in built if kind == "T"] == points
    # an array goes through the layers, even when it holds the range's own
    # seeds: packed in order, shuffled between its ends, or as word columns
    packed = np.arange(block.start, block.stop, dtype=np.uint64)
    shuffled = packed.copy()
    shuffled[1:-1] = rng.permutation(packed[1:-1])
    columns = split_words(packed, fam.seed_columns())
    for other in (packed, shuffled, columns):
        assert _block_mismatches(fam, plan, other, rng) == 0


# t is used by the twise kind only
PRG_KINDS = {
    "twise": lambda t, dim, alpha: TWisePRG(t, dim, alpha),
    "recursive_mix": lambda t, dim, alpha: RecursiveMixPRG(dim, alpha),
    "full_independence": lambda t, dim, alpha: FullIndependencePRG(dim, alpha),
}


@st.composite
def _random_bucketed(draw):
    """A small bucketed family of either kind, with PRG1 and PRG2 of any
    kind, ell in {1, 2, 4} and the smallest or next extractor source.  A
    t-wise PRG1 over GF(2^d), d >= 9, takes t up to 8, so that its seed
    field can pass 63 bits."""
    def prg(dim, alpha):
        kind = draw(st.sampled_from(sorted(PRG_KINDS)))
        return PRG_KINDS[kind](draw(st.integers(1, 8 if alpha >= 1 << 9 else 3)), dim, alpha)

    minwise = draw(st.booleans())
    N, M, ell = (draw(st.sampled_from(v)) for v in ([2, 4], [2, 4], [1, 2, 4]))
    prg2 = prg(N, M)
    m = prg2.seed_bits
    if minwise:
        m += TWiseFamily(ConstructionParams(N=N, M=M).inner_independence, N, M).seed_bits
    ext = LeftoverHash(m + draw(st.integers(1, 2)), m)
    prg1 = prg(ell, 1 << ext.d)
    build = _minwise if minwise else _kminwise
    return build(N, M, ell, prg1, prg2, ext)


def _scalar_mismatches(fam, seeds, positions, got) -> int:
    """Entries of ``got`` (point x -> block values) that differ from
    scalar ``eval`` at the given positions of the block."""
    positions = list(positions)
    bad = 0
    for i, seed in zip(positions, seed_ints(seeds[positions], fam.seed_columns())):
        bad += sum(int(vals[i]) != fam.eval(seed, x) for x, vals in got.items())
    return bad


@given(_random_bucketed(), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=40))
# a 72-bit PRG1 field: its words are drawn one at a time
@example(_kminwise(4, 4, 4, TWisePRG(8, 4, 512), FullIndependencePRG(4, 4),
                   LeftoverHash(10, 8)), 5, 40)
@settings(max_examples=50, deadline=None)
def test_random_configs_match_scalar_eval_on_scan_and_drawn_blocks(fam, key, count):
    stream = Philox(key)
    points = range(1, fam.domain_size + 1)
    plan, phi = fam.bind(points), skeleton(fam)
    if fam.seed_bits <= 63:
        # the first, a middle and the last block of kwise.scan's split,
        # served from the per-point tables when n <= L <= SCAN_CHUNK_BITS
        step = min(1 << SCAN_CHUNK_BITS, fam.seed_space)
        blocks = fam.seed_space // step
        for i in sorted({0, blocks // 2, blocks - 1}):
            block = range(i * step, (i + 1) * step)
            packed = np.arange(block.start, block.stop, dtype=np.uint64)
            tables = phi.extractor.n <= phi.low_bits <= SCAN_CHUNK_BITS
            assert (phi._sub_block_sources(block) is not None) == tables
            # the range's packed array takes the layers, with equal values
            assert phi._sub_block_sources(packed) is None
            evaluate, layered = plan(block), plan(packed)
            got = {x: evaluate(x) for x in points}
            assert all(np.array_equal(got[x], layered(x)) for x in points)
            positions = integers(stream, step.bit_length() - 1, 8)
            assert _scalar_mismatches(fam, packed, positions, got) == 0
    # a Monte-Carlo draw (word columns past 64 bits) goes through the layers
    drawn = fam.layout.draw_block(stream, count)
    evaluate = plan(drawn)
    assert _scalar_mismatches(fam, drawn, range(count), {x: evaluate(x) for x in points}) == 0


KMINWISE_DESK = os.path.join(os.path.dirname(__file__), "..", "configs", "kminwise_desk.json")

# configs/kminwise_desk.json's construction at 31 seed bits: h0 sits at
# bit 16, so each aligned 2^16-seed block holds one overlay value
WIDE_DESK = {"N": 8, "M": 8, "extractor": {"kind": "leftover_hash", "n": 4, "m": 3}}


def _kminwise_desk(**changes) -> BucketedKMinwiseFamily:
    """kminwise_desk.json's family (h0 at bit 11), with ``changes`` made
    to its construction."""
    with open(KMINWISE_DESK) as fh:
        config = json.load(fh)["construction"]
    return family_from_config({**config, **changes})


def _overlay_blocks(monkeypatch, fam) -> list:
    """Every block that ``fam``'s plans, bound from now on, hand their
    overlay's plan."""
    seen, bind = [], fam.high.bind

    def spy_bind(points):
        plan = bind(points)
        return lambda seeds: seen.append(seeds) or plan(seeds)

    monkeypatch.setattr(fam.high, "bind", spy_bind)
    return seen


@pytest.mark.parametrize("changes, seeds, values", [
    (WIDE_DESK, range(0x5A5 << 16, 0x5A6 << 16), 1),
    (WIDE_DESK, range((0x5A5 << 16) + 5, (0x5A5 << 16) + 900), 1),  # inside one run
    ({}, range(1 << 16, 2 << 16), 32),
    ({}, range(31 << 16, 32 << 16), 32),
])
def test_kminwise_overlay_reads_h0_as_a_range_on_a_block_cut_at_its_runs(
        monkeypatch, changes, seeds, values):
    fam = _kminwise_desk(**changes)
    seen = _overlay_blocks(monkeypatch, fam)
    points = range(1, fam.domain_size + 1)
    plan = fam.bind(points)
    evaluate = plan(seeds)
    got = {x: evaluate(x) for x in points}
    # scalar eval at both ends of every run and at 256 other seeds
    packed = np.arange(seeds.start, seeds.stop, dtype=np.uint64)
    run = len(seeds) // values
    ends = [i for r in range(values) for i in (r * run, (r + 1) * run - 1)]
    rng = np.random.Generator(np.random.Philox(key=seeds.start))
    positions = ends + rng.integers(0, len(seeds), size=256).tolist()
    assert _scalar_mismatches(fam, packed, positions, got) == 0
    # every value equals the one the packed block's word columns give
    layered = plan(packed)
    assert all(np.array_equal(got[x], layered(x)) for x in points)
    # the overlay's plan read one value a run, and no word of h0, then
    # the packed block's h0 words
    offset = fam.layout.field("h0-seed").offset
    assert seen[0] == range(seeds.start >> offset, ((seeds.stop - 1) >> offset) + 1)
    assert len(seen[0]) == values
    assert seen[1].shape == (len(seeds), len(fam.high.seed_columns()))


def test_kminwise_overlay_reads_h0_words_on_every_other_block(monkeypatch):
    desk = _kminwise_desk()
    # a 72-bit PRG1 field, so that a draw is a block of word columns
    wide = _kminwise(4, 4, 4, TWisePRG(8, 4, 512), FullIndependencePRG(4, 4),
                     LeftoverHash(10, 8))
    rng = np.random.Generator(np.random.Philox(key=46))
    blocks = [
        (desk, range((3 << 11) + 100, (5 << 11) + 7)),  # unaligned, over three runs
        (desk, range(1 << 16, (1 << 16) + 4000, 2)),
        (desk, rng.integers(0, desk.seed_space, size=2000, dtype=np.uint64)),
        (wide, wide.layout.draw_block(Philox(46), 500)),
    ]
    assert blocks[-1][1].ndim == 2
    for fam, seeds in blocks:
        with monkeypatch.context() as patch:
            seen = _overlay_blocks(patch, fam)
            points = range(1, fam.domain_size + 1)
            evaluate = fam.bind(points)(seeds)
            got = {x: evaluate(x) for x in points}
        assert [s.shape for s in seen] == [(len(seeds), len(fam.high.seed_columns()))]
        if isinstance(seeds, range):
            seeds = np.arange(seeds.start, seeds.stop, seeds.step, dtype=np.uint64)
        assert _scalar_mismatches(fam, seeds, range(len(seeds)), got) == 0


def test_points_past_the_table_budget_keep_equal_values(monkeypatch):
    make = TABLE_FAMILIES["minwise L<c"]
    queries = [([1, 2, 3, 4], [y]) for y in range(1, 5)] + [([2, 3], [3]), ([1, 3, 4], [1])]
    want = measure_corpus(make(), queries)
    fam = make()
    # room for the T_x (2^6 uint8 entries) of all four points and the Y_x
    # (2^10 uint8 entries) of two: points 1 and 2 are served from both
    # tables, 3 and 4 layered through T_x; with no room, every point is
    # layered without tables
    for budget, tabled, with_y in ((4 * (1 << 6) + 2 * (1 << 10), [1, 2, 3, 4], [1, 2]),
                                   (0, [], [])):
        with monkeypatch.context() as patch:
            patch.setattr(construction, "POINT_TABLE_BYTES", budget)
            built = _spy_table_builds(patch)
            got = measure_corpus(fam, queries)
        assert [x for kind, o, x in built if kind == "T"] == tabled
        assert [x for kind, o, x in built if kind == "Y"] == with_y
        assert [r.measured_p for r in got] == [r.measured_p for r in want]
        assert [r.tie_mass for r in got] == [r.tie_mass for r in want]


def _past_the_budget(kind: str):
    """A family over N = M = 2^10 with m = 30, so that T_x, 2^m uint16
    entries, is past POINT_TABLE_BYTES: min-wise with a 2-wise inner
    family and a constant PRG2, or k-min-wise with a 3-wise PRG2."""
    N = 1 << 10
    if kind == "minwise":
        prg2 = TWisePRG(1, N, N)
        m = TWiseFamily(ConstructionParams(N=N, M=N).inner_independence, N, N).seed_bits
        m += prg2.seed_bits
    else:
        prg2 = TWisePRG(3, N, N)
        m = prg2.seed_bits
    build = _minwise if kind == "minwise" else _kminwise
    return build(N, N, 2, TWisePRG(2, 2, 1 << m), prg2, LeftoverHash(m + 1, m))


@pytest.mark.parametrize("kind", ["minwise", "kminwise"])
def test_extractor_output_past_the_table_budget_builds_no_table(monkeypatch, kind):
    # binding builds and evaluates nothing of T_x's size, and every point
    # goes through the layers with scalar eval's values
    fam = _past_the_budget(kind)
    m = skeleton(fam).extractor.m
    itemsize = np.min_scalar_type(fam.range_size).itemsize
    assert itemsize << m > construction.POINT_TABLE_BYTES
    built = _spy_table_builds(monkeypatch)
    points = [1, 2, 7, fam.domain_size]
    plan = fam.bind(points)
    assert [table for table, _, _ in built if table != "point"] == []
    seeds = fam.layout.draw_block(Philox(m), 200)
    evaluate = plan(seeds)
    got = {x: evaluate(x) for x in points}
    assert _scalar_mismatches(fam, seeds, range(len(seeds)), got) == 0


def _spy_table_builds(monkeypatch) -> list:
    """(table, owner, point) for every table built from now on: the
    point tables of every t-wise family, and each bucketed family's T_x
    and Y_x.  A build in any process but this one raises, and a scan
    worker's exception reaches the test through kwise._portable; so does
    a field's gf2.log_tables, which are cleared first so that none is
    inherited from an earlier test.  So are the fields of
    gf2.find_irreducible, which builds their tables: a family made after
    this call builds them anew, in this process."""
    built, pid = [], os.getpid()

    def in_this_process():
        if os.getpid() != pid:
            raise AssertionError("a table was built in a scan worker")

    log_tables = gf2.log_tables
    log_tables.cache_clear()
    gf2.find_irreducible.cache_clear()

    def spy_log_tables(ctx):
        misses = log_tables.cache_info().misses
        out = log_tables(ctx)
        if log_tables.cache_info().misses != misses:
            in_this_process()
        return out

    monkeypatch.setattr(gf2, "log_tables", spy_log_tables)
    run_tables, tables = TWiseFamily._run_tables, construction._BucketedFamily._tables

    def spy_run_tables(self, x):
        in_this_process()
        built.append(("point", id(self), x))
        return run_tables(self, x)

    def spy_tables(self, *args):
        in_this_process()
        out = tables(self, *args)
        built.extend(("T", id(self), x) for x in out)
        built.extend(("Y", id(self), x) for x, (_, ys) in out.items() if ys is not None)
        return out

    monkeypatch.setattr(TWiseFamily, "_run_tables", spy_run_tables)
    monkeypatch.setattr(construction._BucketedFamily, "_tables", spy_tables)
    return built


def _desk_scan_builds(patch, threads: int) -> tuple[list, list, list]:
    """The desk scan at ``threads`` workers: the tables built, the sizes
    of the blocks the parent evaluates, and of g's blocks.  g's plan
    raises when a scan worker evaluates it."""
    built = _spy_table_builds(patch)
    fam = desk_minwise()
    blocks, g_blocks, pid = [], [], os.getpid()
    bind, bind_g = fam.bind, fam.g.bind

    def spy_bind(points):
        plan = bind(points)
        return lambda seeds: blocks.append(len(seeds)) or plan(seeds)

    def spy_bind_g(points):
        plan = bind_g(points)

        def block(seeds):
            if os.getpid() != pid:
                raise AssertionError("g was evaluated by the layers in a scan worker")
            g_blocks.append(len(seeds))
            return plan(seeds)

        return block

    patch.setattr(fam, "bind", spy_bind)
    patch.setattr(fam.g, "bind", spy_bind_g)
    measure_corpus(fam, [([1, 2, 3, 4], [1]), ([2, 4], [4])], threads=threads)
    points = range(1, 5)
    owners = {fam.g: points, fam.prg1.family: range(1, fam.params.ell + 1),
              fam.inner: points}
    assert sorted(built) == sorted(
        [(kind, id(fam), x) for kind in "TY" for x in points] +
        [("point", id(owner), x) for owner, xs in owners.items() for x in xs])
    return built, blocks, g_blocks


def test_desk_scan_builds_each_point_table_once(monkeypatch):
    # the exhaustive desk scan: the parent builds T_x, Y_x and the point
    # tables of g, PRG1's buckets and the inner family, each once.  Every
    # block is an aligned range served from Y_x, so g's plan is evaluated
    # once, on the low values that build Y_x, and never by the layers
    y_seeds = 1 << desk_minwise().layout.field("prg1-seed").offset
    for threads in (1, 2):
        with monkeypatch.context() as patch:
            built, blocks, g_blocks = _desk_scan_builds(patch, threads)
        assert len(built) == len(set(built))
        # at two workers, every block is evaluated in a worker
        assert blocks == ([1 << SCAN_CHUNK_BITS] * 128 if threads == 1 else [])
        assert g_blocks == [y_seeds]


def test_benchmark_mc_scan_builds_each_point_table_once(monkeypatch, tmp_path):
    # the 84-bit family and corpus of the benchmark's Monte-Carlo workload,
    # read from perfbench/run.py (imported, not changed), over two blocks
    # at two workers
    config = benchmark_module.load(monkeypatch).mc_workload(0, tmp_path).configs["mc.json"]
    built = _spy_table_builds(monkeypatch)
    fam = family_from_config(config["construction"])
    queries = cli._corpus_queries(config, fam.domain_size, fam.params.k)
    points = sorted({x for X, _ in queries for x in X})
    measure_corpus(fam, queries, samples=(1 << 16) + 500,
                   run_seed=config["run_seed"], threads=2)
    assert len(built) == len(set(built))
    # L > SCAN_CHUNK_BITS, so no Y_x; PRG1 over GF(2^9) keeps no tables
    phi = skeleton(fam)
    assert phi.low_bits > SCAN_CHUNK_BITS and phi.prg1.family.run_words == 0
    assert sorted(x for kind, owner, x in built if kind == "T") == points
    for owner in (phi.g, phi.prg2.family, fam.high):
        assert sorted(x for _, o, x in built if o == id(owner)) == points


def test_oracle_suite_recursive_mix_scan_builds_no_field_table_in_a_worker(monkeypatch):
    # the benchmark oracle suite's prg-test config, read from perfbench/run.py
    # (imported, not changed): a recursive-mix PRG over GF(2^4) with 20-bit
    # seeds, scanned at two workers.  Its blocks multiply in the field, whose
    # tables come with it from gf2.find_irreducible, in this process
    bench = benchmark_module.load(monkeypatch)
    config = bench.oracle_configs(None)["prg.json"]
    reference = json.loads((benchmark_module.RUN_PY.parent / "reference" /
                            "oracle_suite.json").read_text())["reports"]["prg_report.json"]
    _spy_table_builds(monkeypatch)
    prg = prg_from_config(config["prg"], config["dimension"], config["alphabet"])
    assert isinstance(prg, RecursiveMixPRG) and prg.seed_bits == 20
    errors = threshold_errors(prg, config["thresholds"], threads=2)
    assert errors == [row["error"] for row in reference["thresholds"]]


def _wide_kminwise(ell: int) -> BucketedKMinwiseFamily:
    """N = M = 8, a 3-wise PRG1 over GF(2^9) and a 5-wise overlay: 58
    packed seed bits at ell = 4, 52 at ell = 1."""
    return _kminwise(8, 8, ell, TWisePRG(3, ell, 512), TWisePRG(2, 8, 8), LeftoverHash(10, 6))


def _wide_minwise(ell: int) -> BucketedMinwiseFamily:
    """N = M = 8 with a 2-wise inner family and a constant PRG2."""
    return _minwise(8, 8, ell, TWisePRG(2, ell, 512), TWisePRG(1, 8, 8), LeftoverHash(10, 9))


def _counting(monkeypatch, owner, name: str) -> list:
    """Record one entry per call of ``owner.name`` and pass it on."""
    calls, inner = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(1) or inner(*a, **kw))
    return calls


@pytest.mark.parametrize("make, ell", [
    (_wide_minwise, 1), (_wide_minwise, 4), (_wide_minwise, 8),
    (_wide_kminwise, 1), (_wide_kminwise, 4), (_wide_kminwise, 8),
])
def test_bucket_major_path_matches_scalar_eval(monkeypatch, make, ell):
    # a plan of all 8 points, ell or more, extracts z once per bucket and
    # block, from its first block, and every point gathers its own
    # bucket's z; binding extracts nothing
    fam = make(ell)
    stream = Philox(ell)
    packed = integers(stream, fam.seed_bits, 300)
    blocks = {"drawn": fam.layout.draw_block(stream, 300), "packed": packed,
              "columns": split_words(packed, fam.seed_columns())}
    extracts = _counting(monkeypatch, LeftoverHash, "extract_block")
    points = range(1, fam.domain_size + 1)
    plan = fam.bind(points)
    assert extracts == []
    for form, seeds in blocks.items():
        extracts.clear()
        evaluate = plan(seeds)
        got = {x: evaluate(x) for x in points}
        assert len(extracts) == ell, form
        assert _scalar_mismatches(fam, seeds, range(len(seeds)), got) == 0, form


@pytest.mark.parametrize("make", [_wide_minwise, _wide_kminwise])
def test_fewer_points_than_buckets_extract_once_a_point(monkeypatch, make):
    fam = make(4)
    blocks, bind = [], fam.bind

    def spy(points):
        plan = bind(points)
        return lambda seeds: blocks.append(len(seeds)) or plan(seeds)

    monkeypatch.setattr(fam, "bind", spy)
    extracts = _counting(monkeypatch, LeftoverHash, "extract_block")
    # P = 3 distinct points over two Monte-Carlo chunks, counted in
    # slices of 2^MC_COUNT_BITS rows: z at each point's own bucket, never
    # at all four
    measure_corpus(fam, [([1, 2, 3], [2]), ([2, 3], [3])],
                   samples=(1 << 16) + 500, run_seed=3)
    assert blocks == [1 << 14] * 4 + [500]
    assert len(extracts) <= 3 * len(blocks)


@pytest.mark.parametrize("make", [_wide_minwise, _wide_kminwise])
def test_plan_extractions_follow_the_bound_points(monkeypatch, make):
    # the pass is chosen from the plan's points, from its first block: at
    # ell = 4, 3 bound points extract once a point, and all 8 once a bucket
    fam = make(4)
    # draw_block moves its stream past the draw; each block of kwise.scan's
    # Monte-Carlo draw is drawn off its own jump
    blocks = [fam.layout.draw_block(Philox(11).jumped(j), 300) for j in range(3)]
    extracts = _counting(monkeypatch, LeftoverHash, "extract_block")
    for points in ((1, 2, 3), range(1, 9)):
        plan = fam.bind(points)
        for seeds in blocks:
            extracts.clear()
            evaluate = plan(seeds)
            got = {x: evaluate(x) for x in points}
            assert len(extracts) == min(len(points), 4)
            assert _scalar_mismatches(fam, seeds, range(len(seeds)), got) == 0


def test_benchmark_mc_block_multiplies_once_a_bucket(monkeypatch, tmp_path):
    # the 84-bit family of the benchmark's Monte-Carlo workload, read from
    # perfbench/run.py (imported, not changed).  A plan of its ell or more
    # points reads every point from point tables and the per-bucket z, so
    # on every block, the first included, kwise's Horner multiplies only
    # PRG1 over GF(2^9), once per bucket; a fall back to Horner anywhere
    # else fails
    config = benchmark_module.load(monkeypatch).mc_workload(0, tmp_path).configs["mc.json"]
    fam = family_from_config(config["construction"])
    assert fam.seed_bits == 84
    ell, points = fam.params.ell, range(1, fam.domain_size + 1)
    muls = _counting(monkeypatch, kwise, "mul_block")
    plan = fam.bind(points)
    for j in range(2):
        # block j of kwise.scan's Monte-Carlo draw
        seeds = fam.layout.draw_block(Philox(config["run_seed"]).jumped(j), 1 << MC_DRAW_BITS)
        muls.clear()
        evaluate = plan(seeds)
        got = {x: evaluate(x) for x in points}
        assert len(muls) <= ell
        assert _scalar_mismatches(fam, seeds, range(0, len(seeds), 4099), got) == 0
