"""Tests for the bucketed constructions: layouts, laziness, marginals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import benchmark_module
from seed_rows import seed_ints, split_words
from minwise_lab import construction, kwise
from minwise_lab.construction import (
    BucketedKMinwiseFamily,
    BucketedMinwiseFamily,
    ConstructionParams,
    SeedLayout,
    build_kminwise,
    build_minwise,
    family_from_config,
    params_from_config,
    prg_from_config,
    seed_layout,
)
from minwise_lab.errors import ParamViolation
from minwise_lab.extractor import LeftoverHash
from minwise_lab.kwise import (
    MC_DRAW_BITS,
    SCAN_CHUNK_BITS,
    TWiseFamily,
    dsum_values,
    scan_seeds,
)
from minwise_lab.rectprg import FullIndependencePRG, RecursiveMixPRG, TWisePRG
from minwise_lab.verify import measure_corpus


def desk_minwise(prg1=None) -> BucketedMinwiseFamily:
    """N=M=4, four buckets, 23 packed seed bits with the default PRG1."""
    params = ConstructionParams(N=4, M=4, k=1, ell=4, t=2)
    prg1 = prg1 or TWisePRG(2, 4, 64)
    return build_minwise(params, prg1, TWisePRG(1, 4, 4), LeftoverHash(7, 6))


def desk_kminwise(k: int = 1) -> BucketedKMinwiseFamily:
    """N=M=4 with the overlay family; 21 packed seed bits at k=1."""
    params = ConstructionParams(N=4, M=4, k=k, ell=4, t=2)
    return build_kminwise(
        params, TWisePRG(2, 4, 4), TWisePRG(1, 4, 4), LeftoverHash(3, 2)
    )


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
    assert fam.overlay.t == 5  # (C_e + 1) * k


def test_determinism_across_instances():
    a, b = desk_minwise(), desk_minwise()
    assert a.family_id == b.family_id
    for seed in (0, 1, 0x7FFFFF, 0x5A5A5A & 0x7FFFFF):
        for x in range(1, 5):
            assert a.eval(seed, x) == b.eval(seed, x)
            assert 1 <= a.eval(seed, x) <= 4


def test_eval_block_matches_scalar_eval():
    for fam in (desk_minwise(), desk_kminwise()):
        seeds = np.arange(0, fam.seed_space, 97, dtype=np.uint64)
        for x in range(1, 5):
            block = fam.eval_block(seeds, x)
            assert block.tolist() == [fam.eval(int(s), x) for s in seeds]


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
    fam = build_minwise(
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
    assert layout.pack(layout.unpack(seed)) == seed


def test_layout_rejects_overwide_values():
    layout = SeedLayout.build([("a", (3,)), ("b", (5,))])
    assert layout.pack({"a": 7, "b": 31}) == 7 | (31 << 3)
    with pytest.raises(ParamViolation):
        layout.pack({"a": 8, "b": 0})
    with pytest.raises(KeyError):
        layout.field("c")


def test_wide_seed_blocks_agree_with_scalar_path():
    # 95 packed bits: draw_seed_block fills one column per coefficient word
    params = ConstructionParams(N=12, M=64, k=2, ell=4, t=2)
    fam = build_kminwise(
        params, TWisePRG(2, 4, 64), TWisePRG(1, 12, 64), LeftoverHash(7, 6)
    )
    assert fam.seed_bits == 95
    assert fam.seed_columns() == (4,) * 4 + (6, 6) + (7,) + (6,) * 10
    rng = np.random.Generator(np.random.Philox(key=21))
    block = fam.draw_seed_block(rng, 40)
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
        got = layout.draw_block(np.random.Generator(np.random.Philox(key=4)), 1000)
        assert got.dtype == np.min_scalar_type((1 << max(layout.words)) - 1)
        assert got.shape == (1000, len(layout.words))
        assert np.array_equal(got, np.concatenate(want, axis=1))


def test_param_validation():
    with pytest.raises(ParamViolation):
        ConstructionParams(N=4, M=3)            # alphabet not a power of two
    with pytest.raises(ParamViolation):
        ConstructionParams(N=4, M=4, ell=3)     # bucket count not a power of two
    with pytest.raises(ParamViolation):
        ConstructionParams(N=4, M=4, C_e=3, C_s=3)
    with pytest.raises(ParamViolation):
        ConstructionParams(N=4, M=4, k=5)       # k > N
    with pytest.raises(ParamViolation):
        ConstructionParams(N=32, M=4, k=26)     # k above the polylog cap
    ConstructionParams(N=32, M=4, k=26, k_cap=32)  # explicit cap lifts it


def test_component_shape_validation():
    params = ConstructionParams(N=4, M=4, k=1, ell=4, t=2)
    good = dict(prg1=TWisePRG(2, 4, 64), prg2=TWisePRG(1, 4, 4),
                extractor=LeftoverHash(7, 6))
    build_minwise(params, **good)
    with pytest.raises(ParamViolation):
        build_minwise(params, TWisePRG(2, 8, 64), good["prg2"], good["extractor"])
    with pytest.raises(ParamViolation):
        build_minwise(params, TWisePRG(2, 4, 32), good["prg2"], good["extractor"])
    with pytest.raises(ParamViolation):
        build_minwise(params, good["prg1"], TWisePRG(1, 4, 8), good["extractor"])
    with pytest.raises(ParamViolation):
        # extractor output must split into inner seed + PRG2 seed
        build_minwise(params, TWisePRG(2, 4, 32), good["prg2"], LeftoverHash(6, 5))
    with pytest.raises(ParamViolation):
        build_minwise(ConstructionParams(N=4, M=4, k=2, ell=4, t=2), **good)
    with pytest.raises(ParamViolation):
        # k-min-wise wants extractor output == PRG2 seed exactly
        build_kminwise(params, TWisePRG(2, 4, 64), TWisePRG(1, 4, 4),
                       LeftoverHash(7, 6))


def test_seed_layout_helper_matches_builders():
    params = ConstructionParams(N=4, M=4, k=1, ell=4, t=2)
    lay = seed_layout(params, TWisePRG(2, 4, 64), TWisePRG(1, 4, 4),
                      LeftoverHash(7, 6))
    assert lay.total_bits == 23
    with pytest.raises(ValueError):
        seed_layout(params, TWisePRG(2, 4, 64), TWisePRG(1, 4, 4),
                    LeftoverHash(7, 6), kind="else")


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
    assert fam.overlay.t == 10


def test_config_validation():
    with pytest.raises(ParamViolation):
        params_from_config({"N": 4})
    with pytest.raises(ParamViolation):
        family_from_config({**MINWISE_CONFIG, "family": "sketchy"})
    missing = dict(MINWISE_CONFIG)
    del missing["prg1"]
    with pytest.raises(ParamViolation):
        family_from_config(missing)
    with pytest.raises(ParamViolation):
        prg_from_config({"kind": "twise"}, 4, 4)
    with pytest.raises(ParamViolation):
        prg_from_config({"kind": "full_independence", "claimed_error": 0.1}, 4, 4)
    with pytest.raises(ParamViolation):
        prg_from_config({"kind": "unheard_of"}, 4, 4)
    with pytest.raises(ParamViolation):
        prg_from_config("twise", 4, 4)
    assert isinstance(prg_from_config({"kind": "recursive_mix"}, 4, 4),
                      RecursiveMixPRG)


def test_design_widths_report():
    params = ConstructionParams(N=256, M=256, k=2, ell=16, t=4)
    for kind in ("minwise", "kminwise"):
        w = params.design_widths(kind)
        assert set(w) == {"source_bits", "output_bits", "per_bucket_seed_bits"}
        assert all(isinstance(v, int) and v > 0 for v in w.values())
    assert params.design_widths("kminwise")["source_bits"] > \
        params.design_widths("minwise")["source_bits"]
    with pytest.raises(ValueError):
        params.design_widths("other")


def test_target_error_and_derived_degrees():
    params = ConstructionParams(N=4, M=4, k=2, ell=4, t=3)
    assert params.target_error == 0.125
    assert params.allocation_independence == 4
    assert params.overlay_independence == 10
    assert params.inner_independence == 2


# ---------------------------------------------------------------------------
# per-point tables: the block path against the layered path and scalar eval
# ---------------------------------------------------------------------------


def _minwise(N, M, ell, prg1, prg2, ext):
    return build_minwise(ConstructionParams(N=N, M=M, k=1, ell=ell, t=2), prg1, prg2, ext)


def _kminwise(N, M, ell, prg1, prg2, ext):
    return build_kminwise(ConstructionParams(N=N, M=M, k=1, ell=ell, t=2), prg1, prg2, ext)


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


def _block_mismatches(fam, seeds, rng) -> int:
    """Points x and seeds where ``fam`` on the block (a range or an
    array) differs from its layered path on the packed block, plus scalar
    eval at eight positions per point."""
    if isinstance(seeds, range):
        packed = np.arange(seeds.start, seeds.stop, seeds.step, dtype=np.uint64)
    elif seeds.ndim == 1:
        packed = seeds
    else:
        packed = np.asarray(seed_ints(seeds, fam.seed_columns()), dtype=np.uint64)
    evaluate, reference = fam.block_evaluator(seeds), fam._layered_evaluator(packed)
    bad = 0
    for x in range(1, fam.domain_size + 1):
        got = evaluate(x)
        bad += int(np.count_nonzero(got != reference(x)))
        for i in rng.integers(0, len(packed), size=8):
            bad += int(got[i]) != fam.eval(int(packed[i]), x)
    return bad


@pytest.mark.parametrize("name", sorted(TABLE_FAMILIES))
def test_table_path_equals_layered_path_and_scalar_eval(name):
    fam = TABLE_FAMILIES[name]()
    rng = np.random.Generator(np.random.Philox(key=len(name)))
    step = 1 << SCAN_CHUNK_BITS
    if fam.seed_bits <= 24:
        # every block of the exhaustive scan, in scan order
        assert scan_seeds(fam.seed_bits, lambda seeds: _block_mismatches(fam, seeds, rng)) == 0
        block = range(min(step, fam.seed_space))
    else:
        # aligned scan-shaped range blocks at the start, the end and in between
        for i in (0, 1, 0x5A5, (fam.seed_space >> SCAN_CHUNK_BITS) - 1):
            block = range(i * step, (i + 1) * step)
            assert _block_mismatches(fam, block, rng) == 0
    # Y_x serves exactly the aligned range blocks of layouts with
    # n <= L <= SCAN_CHUNK_BITS, and was built for every point there;
    # every point evaluated has its T_x
    aligned = fam.extractor.n <= fam.low_bits <= SCAN_CHUNK_BITS
    points = list(range(1, fam.domain_size + 1))
    assert (fam._sub_block_sources(block) is not None) == aligned
    assert sorted(fam._low_tables) == (points if aligned else [])
    assert sorted(fam._after_tables) == points
    # an array goes through the layers, even when it holds the range's own
    # seeds: packed in order, shuffled between its ends, or as word columns
    packed = np.arange(block.start, block.stop, dtype=np.uint64)
    shuffled = packed.copy()
    shuffled[1:-1] = rng.permutation(packed[1:-1])
    columns = split_words(packed, fam.seed_columns())
    for other in (packed, shuffled, columns):
        assert fam._sub_block_sources(other) is None
        assert _block_mismatches(fam, other, rng) == 0


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
    rng = np.random.Generator(np.random.Philox(key=key))
    points = range(1, fam.domain_size + 1)
    if fam.seed_bits <= 63:
        # the first, a middle and the last block of scan_seeds' split,
        # served from the per-point tables when n <= L <= SCAN_CHUNK_BITS
        step = min(1 << SCAN_CHUNK_BITS, fam.seed_space)
        blocks = fam.seed_space // step
        for i in sorted({0, blocks // 2, blocks - 1}):
            block = range(i * step, (i + 1) * step)
            packed = np.arange(block.start, block.stop, dtype=np.uint64)
            tables = fam.extractor.n <= fam.low_bits <= SCAN_CHUNK_BITS
            assert (fam._sub_block_sources(block) is not None) == tables
            # the range's packed array takes the layers, with equal values
            assert fam._sub_block_sources(packed) is None
            evaluate, layered = fam.block_evaluator(block), fam.block_evaluator(packed)
            got = {x: evaluate(x) for x in points}
            assert all(np.array_equal(got[x], layered(x)) for x in points)
            assert _scalar_mismatches(fam, packed, rng.integers(0, step, size=8), got) == 0
    # a Monte-Carlo draw (word columns past 64 bits) goes through the layers
    drawn = fam.draw_seed_block(rng, count)
    evaluate = fam.block_evaluator(drawn)
    assert _scalar_mismatches(fam, drawn, range(count), {x: evaluate(x) for x in points}) == 0


def test_points_past_the_table_budget_keep_equal_values(monkeypatch):
    make = TABLE_FAMILIES["minwise L<c"]
    queries = [([1, 2, 3, 4], [y]) for y in range(1, 5)] + [([2, 3], [3]), ([1, 3, 4], [1])]
    want = measure_corpus(make(), queries)
    # room for the T_x (2^6 uint8 entries) of all four points and the Y_x
    # (2^10 uint64 entries) of two: points 1 and 2 are served from both
    # tables, 3 and 4 layered through T_x
    fam, layered = make(), make()
    with monkeypatch.context() as patch:
        patch.setattr(construction, "POINT_TABLE_BYTES", 4 * (1 << 6) + 2 * 8 * (1 << 10))
        got = measure_corpus(fam, queries)
        patch.setattr(construction, "POINT_TABLE_BYTES", 0)
        none = measure_corpus(layered, queries)
    assert [x for x in range(1, 5) if fam._low_tables[x] is not None] == [1, 2]
    assert all(fam._after_tables[x] is not None for x in range(1, 5))
    assert not any(layered._low_tables.values()) and not any(layered._after_tables.values())
    for reports in (got, none):
        assert [r.exact_measured for r in reports] == [r.exact_measured for r in want]
        assert [r.exact_tie for r in reports] == [r.exact_tie for r in want]


def test_desk_scan_builds_each_point_table_once(monkeypatch):
    fam = desk_minwise()
    built, blocks = [], []

    def counted(name, bind):
        def wrapper(seeds):
            blocks.append(len(seeds)) if name == "block" else None
            evaluate = bind(seeds)
            if name == "block":
                return evaluate
            return lambda x: built.append((name, x)) or evaluate(x)
        return wrapper

    after_z = fam._after_z
    monkeypatch.setattr(fam, "_after_z", lambda z, x: built.append(("T", x)) or after_z(z, x))
    # g's block evaluator is bound once per Y_x and never on the table path
    monkeypatch.setattr(fam.g, "block_evaluator", counted("Y", fam.g.block_evaluator))
    monkeypatch.setattr(fam, "block_evaluator", counted("block", fam.block_evaluator))
    measure_corpus(fam, [([1, 2, 3, 4], [1]), ([2, 4], [4])], threads=1)
    assert blocks == [1 << SCAN_CHUNK_BITS] * 128
    assert sorted(built) == sorted([("T", x) for x in range(1, 5)] +
                                   [("Y", x) for x in range(1, 5)])


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


# extractions a block over all 8 points: on the family's first block the
# points before the ell-th extract at their own bucket
@pytest.mark.parametrize("make, ell, first, later", [
    (_wide_minwise, 1, 1, 1), (_wide_minwise, 4, 7, 4), (_wide_minwise, 8, 15, 8),
    (_wide_kminwise, 1, 1, 1), (_wide_kminwise, 4, 7, 4), (_wide_kminwise, 8, 15, 8),
])
def test_bucket_major_path_matches_scalar_eval(monkeypatch, make, ell, first, later):
    # with ell or more points the layers extract z once per bucket and
    # block, and every point gathers its own bucket's z
    fam = make(ell)
    rng = np.random.Generator(np.random.Philox(key=ell))
    packed = rng.integers(0, fam.seed_space, size=300, dtype=np.uint64)
    blocks = {"drawn": fam.draw_seed_block(rng, 300), "packed": packed,
              "columns": split_words(packed, fam.seed_columns())}
    extracts = _counting(monkeypatch, LeftoverHash, "extract_block")
    points = range(1, fam.domain_size + 1)
    for i, (form, seeds) in enumerate(blocks.items()):
        extracts.clear()
        evaluate = fam.block_evaluator(seeds)
        got = {x: evaluate(x) for x in points}
        assert len(extracts) == (later if i else first), form
        assert _scalar_mismatches(fam, seeds, range(len(seeds)), got) == 0, form


@pytest.mark.parametrize("make", [_wide_minwise, _wide_kminwise])
def test_fewer_points_than_buckets_extract_once_a_point(monkeypatch, make):
    fam = make(4)
    binds = []
    bind = fam.block_evaluator
    monkeypatch.setattr(fam, "block_evaluator",
                        lambda seeds: binds.append(len(seeds)) or bind(seeds))
    extracts = _counting(monkeypatch, LeftoverHash, "extract_block")
    # P = 3 distinct points over two Monte-Carlo blocks: z at each
    # point's own bucket, never at all four
    measure_corpus(fam, [([1, 2, 3], [2]), ([2, 3], [3])], "mc",
                   samples=(1 << 16) + 500, run_seed=3)
    assert binds == [1 << 16, 500]
    assert len(extracts) <= 3 * len(binds)


@pytest.mark.parametrize("make", [_wide_minwise, _wide_kminwise])
def test_sparse_points_after_a_full_block_extract_once_a_point_again(monkeypatch, make):
    # the pass follows the points of the current blocks, not of the
    # family's past: after a block of all 8 points, 3 points take the
    # per-bucket pass on the next block only
    fam = make(4)
    rng = np.random.Generator(np.random.Philox(key=11))
    blocks = [fam.draw_seed_block(rng, 300) for _ in range(3)]
    evaluate = fam.block_evaluator(blocks[0])
    for x in range(1, fam.domain_size + 1):
        evaluate(x)
    extracts = _counting(monkeypatch, LeftoverHash, "extract_block")
    counts = []
    for seeds in blocks[1:]:
        extracts.clear()
        evaluate = fam.block_evaluator(seeds)
        got = {x: evaluate(x) for x in (1, 2, 3)}
        counts.append(len(extracts))
        assert _scalar_mismatches(fam, seeds, range(len(seeds)), got) == 0
    assert counts == [4, 3]


def test_benchmark_mc_block_multiplies_once_a_bucket(monkeypatch, tmp_path):
    # the 84-bit family of the benchmark's Monte-Carlo workload, read from
    # perfbench/run.py (imported, not changed).  Once a block of its scan
    # has evaluated ell points, every point is read from point tables and
    # the per-bucket z, so kwise's Horner multiplies only PRG1 over
    # GF(2^9), once per bucket; a fall back to Horner anywhere else fails
    config = benchmark_module.load(monkeypatch).mc_workload(0, tmp_path).configs["mc.json"]
    fam = family_from_config(config["construction"])
    assert fam.seed_bits == 84
    ell, points = fam.params.ell, range(1, fam.domain_size + 1)
    muls = _counting(monkeypatch, kwise, "mul_block")
    for j in range(2):
        # block j of kwise.scan's Monte-Carlo draw
        rng = np.random.Generator(np.random.Philox(key=config["run_seed"]).jumped(j))
        seeds = fam.draw_seed_block(rng, 1 << MC_DRAW_BITS)
        muls.clear()
        evaluate = fam.block_evaluator(seeds)
        got = {x: evaluate(x) for x in points}
        # the family's first block evaluates ell - 1 points layered first
        assert len(muls) <= ell + (ell - 1 if j == 0 else 0)
        assert _scalar_mismatches(fam, seeds, range(0, len(seeds), 4099), got) == 0
