"""Tests for the measurement oracles: min-wise error, loads, tails, reduction."""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksize import mc_count_bits, scan_chunk_bits
from deadline import deadline
import reference_counts
from reference_rectprg import threshold_rectangle
from seed_rows import seed_ints
from minwise_lab import cli, verify
from minwise_lab.config import within
from minwise_lab.construction import (
    BucketedKMinwiseFamily,
    BucketedMinwiseFamily,
    ConstructionParams,
    family_from_config,
    prg_from_config,
)
from minwise_lab.errors import InvalidArgument, SeedSpaceTooLarge
from minwise_lab.extractor import LeftoverHash
from minwise_lab.gf2 import find_irreducible
from minwise_lab.kwise import DirectSumFamily, SeededFamily, TWiseFamily
from minwise_lab.philox import Philox
from minwise_lab.rectprg import (
    FullIndependencePRG,
    Rectangle,
    RecursiveMixPRG,
    TWisePRG,
    rectangle_error,
    rectangle_hits_exact,
    strict_order_margins,
)
from minwise_lab.verify import (
    CSV_COLUMNS,
    CSV_SCHEMA,
    BoundCheck,
    _bounded_count_poly,
    _reduction_counts,
    _scan_loads,
    _wilson_halfwidth,
    binomial_central_moment,
    binomial_tail_at_least,
    check_load_lemma,
    check_reduction,
    check_twise_tails,
    exact_summary,
    measure_corpus,
    measure_minwise,
    uniform_minwise_probability,
    write_reports_csv,
)


# ---------------------------------------------------------------------------
# the uniform closed form
# ---------------------------------------------------------------------------


def _brute_force_uniform(sizeX: int, M: int, k: int) -> Fraction:
    """Count max(first k) < min(rest) over every function [sizeX] -> [M]."""
    hits = 0
    for values in itertools.product(range(1, M + 1), repeat=sizeX):
        if max(values[:k]) < min(values[k:]):
            hits += 1
    return Fraction(hits, M ** sizeX)


@pytest.mark.parametrize("sizeX,M,k", [
    (3, 4, 1), (4, 3, 1), (4, 5, 2), (5, 3, 3), (2, 7, 1),
])
def test_uniform_closed_form_matches_brute_force(sizeX, M, k):
    assert uniform_minwise_probability(sizeX, M, k) == _brute_force_uniform(sizeX, M, k)


def test_uniform_closed_form_frozen_values():
    assert uniform_minwise_probability(3, 4, 1) == Fraction(7, 32)
    assert uniform_minwise_probability(4, 8, 1) == Fraction(49, 256)


def test_uniform_closed_form_large_M_limit():
    # continuous limit is 1 / C(sizeX, k); collisions vanish like 1/M
    for sizeX in (2, 3, 5, 8):
        p = uniform_minwise_probability(sizeX, 2 ** 12, 1)
        assert abs(p - Fraction(1, sizeX)) <= Fraction(sizeX, 2 ** 12)


def test_uniform_closed_form_is_computed_once_per_shape():
    fresh = uniform_minwise_probability.__wrapped__(6, 16, 2)
    assert uniform_minwise_probability(6, 16, 2) == fresh
    hits = uniform_minwise_probability.cache_info().hits
    assert uniform_minwise_probability(6, 16, 2) == fresh
    assert uniform_minwise_probability.cache_info().hits == hits + 1


def test_uniform_closed_form_rejects_bad_params():
    with pytest.raises(ValueError):
        uniform_minwise_probability(3, 1, 1)
    with pytest.raises(ValueError):
        uniform_minwise_probability(3, 8, 0)
    with pytest.raises(ValueError):
        uniform_minwise_probability(3, 8, 4)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=64))
@settings(max_examples=40, deadline=None)
def test_uniform_singletons_sum_to_one_minus_ties(sizeX, M):
    # sizeX * Pr[one point strictly smallest] + Pr[min not unique] == 1,
    # and the tie mass is at most the birthday bound C(sizeX,2)/M
    p = uniform_minwise_probability(sizeX, M, 1)
    tie = 1 - sizeX * p
    assert 0 <= tie <= Fraction(math.comb(sizeX, 2), M)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def test_exhaustive_matches_uniform_for_fully_independent_family():
    fam = TWiseFamily(3, 3, 4)  # 3-wise on 3 points == truly uniform
    rep = measure_minwise(fam, [1, 2, 3], [2])
    assert rep.measured_p == uniform_minwise_probability(3, 4, 1)
    assert rep.mult_err_uniform == 0.0
    assert rep.ci_halfwidth == 0.0
    assert rep.mode == "exhaustive" and rep.samples == fam.seed_space


def test_exhaustive_matches_uniform_for_full_independence_prg():
    # same statement through the PRG itself
    fam = FullIndependencePRG(3, 4)
    rep = measure_minwise(fam, [1, 2, 3], [1])
    assert rep.measured_p == Fraction(7, 32)
    # ties: sum over v of [(5-v)^2 - (4-v)^2] / 64 = (7+5+3+1)/64
    assert rep.tie_mass == Fraction(1, 4)


def test_singleton_hits_plus_tie_mass_cover_the_seed_space():
    fam = TWiseFamily(2, 4, 8)
    X = [1, 2, 3, 4]
    total_hits = Fraction(0)
    for y in X:
        rep = measure_minwise(fam, X, [y])
        total_hits += rep.measured_p
    # independent recount of seeds whose minimum is not unique
    seeds = np.arange(fam.seed_space, dtype=np.uint64)
    vals = np.stack([fam.eval_block(seeds, x) for x in X])
    mins = vals.min(axis=0)
    nonunique = int(((vals == mins).sum(axis=0) >= 2).sum())
    assert total_hits + Fraction(nonunique, fam.seed_space) == 1


def test_exhaustive_chunking_is_invisible():
    fam = TWiseFamily(2, 8, 16)
    with scan_chunk_bits(2):
        a = measure_minwise(fam, [1, 2, 3, 4, 5], [3])
    with scan_chunk_bits(20):
        b = measure_minwise(fam, [1, 2, 3, 4, 5], [3])
    assert a.measured_p == b.measured_p
    assert a.tie_mass == b.tie_mass


def test_mc_mode_is_reproducible_and_close():
    fam = TWiseFamily(2, 8, 16)
    exact = measure_minwise(fam, [1, 2, 3, 4, 5], [3])
    mc1 = measure_minwise(fam, [1, 2, 3, 4, 5], [3],
                          samples=20000, run_seed=7)
    mc2 = measure_minwise(fam, [1, 2, 3, 4, 5], [3],
                          samples=20000, run_seed=7)
    assert mc1.measured_p == mc2.measured_p
    assert mc1.ci_halfwidth == _wilson_halfwidth(round(mc1.measured_p * 20000), 20000)
    assert abs(mc1.measured_p - exact.measured_p) < 0.02
    mc3 = measure_minwise(fam, [1, 2, 3, 4, 5], [3],
                          samples=20000, run_seed=8)
    assert mc3.measured_p != mc1.measured_p


def test_wilson_halfwidth_stays_positive_at_the_ends():
    n = 20000
    # the normal approximation gives 0 at hits 0 and n; Wilson's does not
    assert _wilson_halfwidth(0, n) > 0 and _wilson_halfwidth(n, n) > 0
    assert _wilson_halfwidth(0, n) == _wilson_halfwidth(n, n)
    # half the distance between the interval's ends, the proportions q with
    # (p - q)^2 = z^2 q (1 - q) / n
    z, p = 2.576, 0.3
    lower, upper = sorted(np.roots([1 + z * z / n, -(2 * p + z * z / n), p * p]))
    assert _wilson_halfwidth(6000, n) == pytest.approx((upper - lower) / 2, rel=1e-9)
    # at p = 1/2 it is within 0.1% of the old 2.576 * sqrt(p(1-p)/n)
    normal = 2.576 * math.sqrt(0.25 / n)
    assert _wilson_halfwidth(n // 2, n) == pytest.approx(normal, rel=1e-3)


def test_mc_mode_on_a_seed_space_too_large_to_enumerate():
    fam = TWiseFamily(8, 8, 1024)  # 80 seed bits
    with pytest.raises(SeedSpaceTooLarge):
        measure_minwise(fam, list(range(1, 9)), [1])
    rep = measure_minwise(fam, list(range(1, 9)), [1],
                          samples=30000, run_seed=3)
    # eight points, huge alphabet: reference is 1/8 give or take 8/1024
    assert abs(rep.measured_p - 0.125) < 0.02
    assert rep.mult_err_fair < 0.2


def test_query_validation():
    fam = TWiseFamily(2, 4, 8)
    with pytest.raises(InvalidArgument, match="need a nonempty Y strictly inside X"):
        measure_minwise(fam, [1, 2, 3], [])
    with pytest.raises(InvalidArgument, match="need a nonempty Y strictly inside X"):
        measure_minwise(fam, [1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        measure_minwise(fam, [1, 2, 2], [1])
    with pytest.raises(ValueError):
        measure_minwise(fam, [1, 2, 3], [4])
    with pytest.raises(InvalidArgument, match=r"point 99 outside \[1, 4\]"):
        measure_minwise(fam, [1, 2, 99], [1])
    with pytest.raises(TypeError):
        measure_minwise(fam, [1, 2, 3], [1], mode="guess")
    with pytest.raises(ValueError):
        measure_minwise(fam, [1, 2, 3], [1], samples=0)


# ---------------------------------------------------------------------------
# the corpus engine against a per-query reference
# ---------------------------------------------------------------------------


def _small_bucketed(kind: str, N: int, M: int, ell: int):
    """The smallest bucketed family of each kind at (N, M, ell)."""
    params = ConstructionParams(N=N, M=M, k=1, ell=ell, t=2)
    prg2 = TWisePRG(1, N, M)
    if kind == "minwise":
        m = TWiseFamily(params.inner_independence, N, M).seed_bits + prg2.seed_bits
        ext = LeftoverHash(m + 1, m)
        return BucketedMinwiseFamily(params, TWisePRG(1, ell, 1 << ext.d), prg2, ext)
    ext = LeftoverHash(prg2.seed_bits + 1, prg2.seed_bits)
    return BucketedKMinwiseFamily(params, TWisePRG(1, ell, 1 << ext.d), prg2, ext)


# 9 and 10 seed bits at N = 2; 13 and 15 at N = 4
SMALL_FAMILIES = [_small_bucketed(kind, N, M, ell)
                  for kind in ("minwise", "kminwise")
                  for N, M, ell in ((2, 2, 2), (4, 4, 1))]


@st.composite
def _family_and_corpus(draw):
    fam = draw(st.sampled_from(SMALL_FAMILIES))
    corpus = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        X = draw(st.lists(st.integers(1, fam.domain_size), min_size=2,
                          max_size=fam.domain_size, unique=True))
        Y = draw(st.lists(st.sampled_from(X), min_size=1, max_size=len(X) - 1,
                          unique=True))
        corpus.append((X, Y))
    return fam, corpus


def _reference_counts(fam, seeds, X, Y):
    """(hits, ties) from this query's own points, evaluated on their own."""
    max_y = np.max([fam.eval_block(seeds, y) for y in Y], axis=0)
    min_rest = np.min([fam.eval_block(seeds, x) for x in X if x not in Y], axis=0)
    return int((max_y < min_rest).sum()), int((max_y == min_rest).sum())


@given(_family_and_corpus(), st.sampled_from([2, 3, 20]), st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_exhaustive_corpus_matches_per_query_reference(fam_corpus, chunk_bits, threads):
    fam, corpus = fam_corpus
    # at most 2^8 blocks, so the 13- and 15-bit families stay quick
    with scan_chunk_bits(max(chunk_bits, fam.seed_bits - 8)):
        reports = measure_corpus(fam, corpus, threads=threads)
    seeds = np.arange(fam.seed_space, dtype=np.uint64)
    assert len(reports) == len(corpus)
    for rep, (X, Y) in zip(reports, corpus):
        hits, ties = _reference_counts(fam, seeds, X, Y)
        assert (rep.sizeX, rep.k, rep.samples) == (len(X), len(Y), fam.seed_space)
        assert rep.measured_p == Fraction(hits, fam.seed_space)
        assert rep.tie_mass == Fraction(ties, fam.seed_space)


def _check_mc_against_per_query_draws(fam, corpus, run_seed, threads=1):
    samples = 3000
    reports = measure_corpus(fam, corpus, samples=samples,
                             run_seed=run_seed, threads=threads)
    for rep, (X, Y) in zip(reports, corpus):
        hits, ties = _reference_counts(fam, fam.layout.draw_block(Philox(run_seed), samples), X, Y)
        assert rep.measured_p == Fraction(hits, samples)
        assert rep.tie_mass == Fraction(ties, samples)
        assert rep.samples == samples


@given(_family_and_corpus(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_mc_corpus_matches_per_query_draws(fam_corpus, run_seed):
    _check_mc_against_per_query_draws(*fam_corpus, run_seed)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk_bits", [2, 16])
@given(_family_and_corpus(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=8, deadline=None)
def test_mc_corpus_does_not_depend_on_the_block_split(chunk_bits, threads, fam_corpus,
                                                      run_seed):
    # the one draw is counted whole, as one block, whatever the
    # exhaustive block size
    with scan_chunk_bits(chunk_bits):
        _check_mc_against_per_query_draws(*fam_corpus, run_seed, threads=threads)


def _wide_kminwise():
    """95 packed seed bits: its seeds come as a 2-D block of word columns."""
    params = ConstructionParams(N=12, M=64, k=2, ell=4, t=2)
    return BucketedKMinwiseFamily(params, TWisePRG(2, 4, 64), TWisePRG(1, 12, 64),
                                  LeftoverHash(7, 6))


@pytest.mark.parametrize("corpus", [
    [([1, 5], [5])],  # 64^2 value vectors: the joint law is counted
    [([1, 2, 3, 7], [2, 7]), ([2, 3, 9], [3])],  # 64^5: every query is counted
])
def test_mc_corpus_on_a_2d_layout_does_not_depend_on_the_count_slices(corpus):
    # one short draw chunk of word columns, counted in slices of 1 and 8
    # rows (the last one short) and whole
    fam, samples, run_seed = _wide_kminwise(), 1001, 4
    drawn = fam.layout.draw_block(Philox(run_seed), samples)
    assert drawn.ndim == 2
    want = [(Fraction(hits, samples), Fraction(ties, samples))
            for hits, ties in (_reference_counts(fam, drawn, X, Y) for X, Y in corpus)]
    for count_bits in (0, 3, 14, 16):
        for threads in (1, 2):
            with mc_count_bits(count_bits):
                reports = measure_corpus(fam, corpus, samples=samples,
                                         run_seed=run_seed, threads=threads)
            assert [(r.measured_p, r.tie_mass) for r in reports] == want, (count_bits, threads)


EVALUATOR_FAMILIES = [
    *SMALL_FAMILIES,
    _wide_kminwise(),
    TWisePRG(3, 8, 8),
    RecursiveMixPRG(8, 8),
    DirectSumFamily(TWiseFamily(2, 6, 8), TWiseFamily(1, 6, 8)),
    TWiseFamily(3, 300, 512),  # 9-bit coefficients: uint16 columns
    # wider than 64 bits, so drawn as word columns
    FullIndependencePRG(32, 8),  # 96 bits
    RecursiveMixPRG(1024, 256),  # 168 bits
    TWisePRG(9, 8, 256),  # 72 bits
    DirectSumFamily(TWiseFamily(5, 8, 256), TWiseFamily(5, 8, 256)),  # 80 bits
]


@given(st.sampled_from(EVALUATOR_FAMILIES), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_block_evaluator_equals_eval_block_and_scalar_eval(fam, key, count):
    seeds = fam.layout.draw_block(Philox(key), count)
    kept = seeds.copy()
    points = range(1, fam.domain_size + 1)
    evaluate = fam.bind(points)(seeds)
    # points in both orders: a bound evaluator must not change with use
    first = {x: evaluate(x) for x in points}
    for x in reversed(points):
        assert np.array_equal(evaluate(x), first[x])
    scalar = seed_ints(seeds, fam.seed_columns())
    for x in points:
        assert np.array_equal(first[x], fam.eval_block(seeds, x))
        assert first[x].tolist() == [fam.eval(s, x) for s in scalar]
    assert np.array_equal(seeds, kept)


def test_corpus_checks_every_query_before_scanning():
    fam = TWiseFamily(5, 8, 32)  # 25 seed bits: a scan would refuse
    with pytest.raises(InvalidArgument, match="need a nonempty Y strictly inside X"):
        measure_corpus(fam, [([1, 2, 3], [1]), ([1, 2], [])])
    assert measure_corpus(fam, []) == []
    with pytest.raises(SeedSpaceTooLarge):
        measure_corpus(fam, [([1, 2, 3], [1])])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("mode", ["exhaustive", "mc"])
@pytest.mark.parametrize("points", [16, 17])
def test_joint_law_and_per_query_counts_give_equal_reports(monkeypatch, points, mode,
                                                           threads):
    # M = 2: the corpus has 2^points value vectors, within a default
    # block of 2^16 seeds at 16 points and just past it at 17.  Each
    # corpus is also measured at the block size that flips its path.
    fam = TWiseFamily(4, 17, 2)  # 20 seed bits: 16 blocks or more
    corpus = [(list(range(i, i + 3)), [i + 2]) for i in range(1, points - 1)]
    sampling = {"samples": (1 << 17) + 1001, "run_seed": 7} if mode == "mc" else {}
    paths = []

    def spy(name):
        count = getattr(verify, name)
        return lambda *args: paths.append(name) or count(*args)

    for name in ("_joint_law", "_block_counts"):
        monkeypatch.setattr(verify, name, spy(name))
    reports = {}
    for chunk_bits in (16, 15 if points == 16 else 17):
        paths.clear()
        with scan_chunk_bits(chunk_bits):
            reports[chunk_bits] = measure_corpus(fam, corpus, **sampling, threads=threads)
        joint = points <= chunk_bits
        if threads == 1:  # forked workers record nowhere the test can see
            assert set(paths) == {"_joint_law" if joint else "_block_counts"}
    first, second = reports.values()
    assert first == second
    assert [r.samples for r in first] == [sampling.get("samples", fam.seed_space)] * len(corpus)


def _few_points(fam) -> list[int]:
    """The first points of fam, as many as keep M^P within 2^16 cells."""
    points = [1]
    while len(points) < fam.domain_size and fam.range_size ** (len(points) + 1) <= 1 << 16:
        points.append(len(points) + 1)
    return points


@pytest.mark.parametrize("fam", [f for f in EVALUATOR_FAMILIES if f.seed_bits <= 24])
def test_counting_a_scan_block_leaves_the_evaluated_values_alone(fam):
    # the first scan block, on the per-point tables where the family has them
    block = np.arange(min(fam.seed_space, 1 << 16), dtype=np.uint64)
    points = _few_points(fam)
    plan, handed = fam.bind(points), []

    def recording(seeds):
        evaluate = plan(seeds)

        def recorded(x):
            out = evaluate(x)
            handed.append((out, out.copy()))
            return out
        return recorded

    law = verify._joint_law(recording, block, points, fam.range_size)
    assert law.sum() == len(block) and len(handed) == len(points)
    assert all(np.array_equal(out, kept) for out, kept in handed)
    # one point evaluated twice in a block gives equal arrays
    evaluate = plan(block)
    for x in points:
        assert np.array_equal(evaluate(x), evaluate(x))


@pytest.mark.parametrize("narrow", [False, True])
@pytest.mark.parametrize("M, P", [(256, 1), (16, 2), (2, 8), (1 << 16, 1), (256, 2), (2, 16)])
def test_joint_law_in_narrow_codes_equals_uint64_codes(M, P, narrow):
    # M^P = 256 or 65,536 cells, so codes in uint8 or uint16 that wrap on
    # the way, most of all at values equal to M; the values come as
    # uint64, as Horner gives them, or as point tables give them
    rng = np.random.default_rng(M + P)
    vals = rng.integers(1, M, size=(P, 3000), endpoint=True, dtype=np.uint64)
    vals[:, :2] = M  # the top cell
    vals[:, 2] = 1  # the bottom cell
    vals[0, 3:9] = M
    if narrow:
        vals = vals.astype(np.min_scalar_type(M))
    code = np.zeros(vals.shape[1], dtype=np.uint64)
    for row in vals:
        code = code * np.uint64(M) + row.astype(np.uint64) - np.uint64(1)
    want = np.bincount(code.view(np.int64), minlength=M ** P)
    seeds = np.arange(vals.shape[1])
    law = verify._joint_law(lambda block: lambda x: vals[x - 1, block],
                            seeds, list(range(1, P + 1)), M)
    assert np.array_equal(law, want)
    assert law[-1] >= 2 and law[0] >= 1


def _ids(value) -> tuple:
    """The id of ``value`` and, for a dict, list or set, of what it holds,
    so that a container filled in place shows too."""
    held = ((*value.keys(), *value.values()) if isinstance(value, dict)
            else value if isinstance(value, (list, set)) else ())
    return id(value), sorted(map(id, held))


def _library_state(obj) -> dict:
    """id -> (object, its attributes' _ids, its attributes) for ``obj`` and
    every library object reachable from it through attributes; holding
    the attributes keeps every id in use while the state is held."""
    state, stack = {}, [obj]
    while stack:
        o = stack.pop()
        if (id(o) in state or not hasattr(o, "__dict__")
                or not type(o).__module__.startswith("minwise_lab")):
            continue
        attrs = dict(vars(o))
        state[id(o)] = (o, {name: _ids(v) for name, v in attrs.items()}, attrs)
        stack.extend(attrs.values())
    return state


SHIPPED_SCANS = ("minwise_desk", "kminwise_desk", "loads_small", "prg_pairwise",
                 "reduction_pairwise")


def _shipped_scan(name: str):
    """(object, its scans) for a shipped config that a scan reads."""
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs" /
                      f"{name}.json").read_text())
    if "construction" in cfg:
        fam = family_from_config(cfg["construction"])
        queries = cli._corpus_queries(cfg, fam.domain_size, fam.params.k)
        return fam, lambda: (measure_corpus(fam, queries),
                             measure_corpus(fam, queries, samples=5000, run_seed=1))
    if "allocation" in cfg:
        g = TWiseFamily(cfg["allocation"]["t"], cfg["N"], cfg["ell"])
        return g, lambda: _scan_loads(g, cfg["X"], cfg["Y"], cfg["ell"], 2)
    prg = prg_from_config(cfg["prg"], cfg["dimension"], cfg["alphabet"])
    return prg, lambda: strict_order_margins(prg, [1], [2, 3, 4])


@pytest.mark.parametrize("name", SHIPPED_SCANS)
def test_scans_leave_every_shipped_family_as_it_was(name):
    # a scan binds its points into a plan of its own: no family, nor any
    # library object it holds, gains, loses, replaces or fills an attribute
    obj, run = _shipped_scan(name)
    getattr(obj, "layout", None)
    before = _library_state(obj)
    run()
    after = _library_state(obj)
    assert after.keys() == before.keys()
    assert all(after[key][1] == attrs for key, (_, attrs, _) in before.items())


# ---------------------------------------------------------------------------
# allocation loads
# ---------------------------------------------------------------------------


def test_binomial_central_moments_match_textbook_formulas():
    r, p = 7, Fraction(1, 3)
    q = 1 - p
    assert binomial_central_moment(r, p, 2) == r * p * q
    assert binomial_central_moment(r, p, 3) == r * p * q * (q - p)
    assert binomial_central_moment(r, p, 4) == \
        r * p * q * (1 + 3 * (r - 2) * p * q)


def test_binomial_tail_matches_direct_sum():
    r, p, u = 6, Fraction(1, 4), 3
    direct = sum(
        math.comb(r, j) * p ** j * (1 - p) ** (r - j) for j in range(u, r + 1)
    )
    assert binomial_tail_at_least(r, p, u) == direct
    assert binomial_tail_at_least(r, p, 0) == 1


def test_bounded_count_poly_matches_enumeration():
    # every assignment of r labelled balls into ell buckets, counted directly
    for r, ell, lo, hi in [(4, 3, 0, 2), (5, 2, 1, 3), (3, 4, 0, 1)]:
        good = 0
        for assign in itertools.product(range(ell), repeat=r):
            loads = [assign.count(b) for b in range(ell)]
            if all(lo <= c <= hi for c in loads):
                good += 1
        assert _bounded_count_poly(r, lo, hi, ell) == Fraction(good, ell ** r)


@pytest.mark.parametrize("r", [0, 1, 2, 5, 9, 16])
def test_bounded_count_poly_equals_the_rational_product(r):
    # bands below, across and past r, empty bands, and ell both odd and
    # even, so that squaring meets every bit pattern of the power
    for lo, hi in [(0, 0), (0, 1), (0, 3), (1, 2), (2, 5), (0, r), (3, 40), (4, 2), (0, -1)]:
        for ell in (1, 2, 3, 6, 7, 16, 33):
            want = reference_counts.bounded_count_poly(r, lo, hi, ell)
            assert _bounded_count_poly(r, lo, hi, ell) == want, (r, lo, hi, ell)


def test_uniform_band_frequency_is_quick_at_many_buckets():
    # r = 299 points into 1024 buckets: the ell-fold rational product
    # took 11.4 s
    with deadline(5):
        rep = check_load_lemma("uniform", range(1, 301), [1], 1024, "small")
    # a load of 2 is bad, so the good placements are the injective ones
    assert rep.bad_frequency == 1 - Fraction(math.perm(1024, 299), 1024 ** 299)


def test_small_regime_uniform_and_full_independence_family_agree():
    # 3-wise on a 3-point query set is exactly the multinomial allocation
    lu = check_load_lemma("uniform", [1, 2, 3], [2], 4, "small")
    lf = check_load_lemma(TWiseFamily(3, 4, 4), [1, 2, 3], [2], 4, "small")
    assert lu.bad_frequency == lf.bad_frequency == 0.25
    assert lu.chain.bound == 0.25  # ell * C(2,2) / ell^2, met with equality
    assert lu.chain.tag == "holds" and lf.asserted_ok()
    assert lu.closed_form.tag == "fails"  # 1/ell^3 has no desk-scale constant
    assert lu.max_load_seen == 2 and lf.max_load_seen == 2


def test_small_regime_pairwise_family_chain_is_a_theorem():
    rep = check_load_lemma(TWiseFamily(2, 8, 16), [1, 2, 3, 4, 5, 6], [1],
                           16, "small")
    assert rep.threshold == 2  # clamped to the family's independence
    assert rep.chain.bound == 16 * math.comb(5, 2) / 16 ** 2
    assert rep.asserted_ok()


def test_small_regime_k2_reports_restricted_load():
    rep = check_load_lemma(TWiseFamily(4, 8, 16), [1, 2, 3, 4, 5, 6], [1, 2],
                           16, "small", C_g=2)
    # all four non-query points in one bucket is the only bad pattern left
    assert rep.bad_frequency == 1 / 4096
    assert rep.chain.bound == 1 / 4096
    assert rep.bj_threshold == 2
    assert rep.bj_chain.bound == math.comb(4, 2) * (2 / 16) ** 2
    assert rep.bj_frequency <= rep.bj_chain.bound
    assert rep.asserted_ok()

    uni = check_load_lemma("uniform", [1, 2, 3, 4, 5, 6], [1, 2],
                           16, "small", C_g=2)
    assert uni.bad_frequency == 0.0  # threshold 6 > 4 remaining points
    assert uni.bj_chain.tag == "holds"


def test_mid_regime_exact_frequencies():
    # ell=4, |X|=4 sits in (4^0.9, 4^1.1); threshold mean + 4^0.1 lands
    # between 1 and 2, so "some load >= 2" is the bad event
    uni = check_load_lemma("uniform", [1, 2, 3, 4], [1], 4, "mid")
    assert uni.bad_frequency == float(Fraction(5, 8))
    fam = check_load_lemma(TWiseFamily(2, 4, 4), [1, 2, 3, 4], [1], 4, "mid")
    # degree-1 field maps are injective, so only the 4 constant seeds collide
    assert fam.bad_frequency == 0.25
    for rep in (uni, fam):
        assert rep.chain.vacuous and rep.chain.ok
        assert rep.closed_form.tag in ("fails", "vacuous")


def test_large_regime_uniform_matches_binomial():
    # ell=2: the bad event is a load leaving (0.9, 1.1) * r/2, i.e. != 6
    rep = check_load_lemma("uniform", list(range(1, 14)), [13], 2, "large")
    expect = 1 - Fraction(math.comb(12, 6), 2 ** 12)
    assert rep.bad_frequency == float(expect)
    assert rep.regime == "large" and rep.r == 12


def test_large_regime_family_scan_matches_direct_recount():
    fam = TWiseFamily(2, 8, 2)
    X, Y = [1, 2, 3, 4, 5, 6], [6]
    rep = check_load_lemma(fam, X, Y, 2, "large")
    seeds = np.arange(fam.seed_space, dtype=np.uint64)
    loads = np.zeros(len(seeds))
    for x in X[:-1]:
        loads += fam.eval_block(seeds, x) == 1
    # the bad event |load - mean| >= mean/10, decided in exact rationals
    mean = Fraction(5, 2)
    bad = [max(abs(int(c) - mean), abs(5 - int(c) - mean)) >= mean / 10 for c in loads]
    assert rep.bad_frequency == sum(bad) / len(bad)


def test_scan_loads_chunking_is_invisible():
    fam = TWiseFamily(2, 8, 16)
    xs, ys = [1, 2, 3, 4, 5, 6], [1]
    with scan_chunk_bits(2):
        fine_hist, fine_bj = _scan_loads(fam, xs, ys, 16, 1)
    with scan_chunk_bits(18):
        coarse_hist, coarse_bj = _scan_loads(fam, xs, ys, 16, 1)
    assert np.array_equal(fine_hist, coarse_hist) and fine_bj == coarse_bj
    assert fine_hist.sum() == fam.seed_space


class _LastSeedPiles(SeededFamily):
    """3-bit allocation onto 2 buckets: seed 7 puts every point in bucket 1
    and every other seed alternates buckets, so the largest load occurs
    only in the last seed block (in TWiseFamily seeds 0-3 are constants,
    whose loads are already maximal in block 0)."""

    domain_size, range_size, seed_bits = 4, 2, 3
    family_id = "last_seed_piles"

    def eval(self, seed, x):
        return 1 if seed == 7 else (seed + x) % 2 + 1


@pytest.mark.parametrize("chunk_bits", [1, 18])
def test_scan_loads_finds_the_max_load_in_the_last_block(chunk_bits):
    fam = _LastSeedPiles()
    xs, ys = [1, 2, 3, 4], [1]
    loads = [[sum(fam.eval(s, x) == b for x in xs[1:]) for b in (1, 2)]
             for s in range(8)]
    y_bucket = [fam.eval(s, 1) for s in range(8)]
    want = (sum(max(ls) >= 3 for ls in loads), max(map(max, loads)),
            sum(ls[b - 1] >= 2 for ls, b in zip(loads, y_bucket)), 8)
    assert want == (1, 3, 1, 8)
    want_hist = np.zeros((4, 4), dtype=np.int64)
    for ls in loads:
        want_hist[min(ls), max(ls)] += 1
    with scan_chunk_bits(chunk_bits):
        hist, bj_bad = _scan_loads(fam, xs, ys, 2, 2)
    assert np.array_equal(hist, want_hist)
    assert (hist[:, 3:].sum(), np.flatnonzero(hist.any(axis=0))[-1], bj_bad,
            hist.sum()) == want


@pytest.mark.parametrize("ell, n, regime, k", [
    pytest.param(4, 4, "mid", 1, id="4-4-mid"), pytest.param(2, 6, "large", 1, id="2-6-large"),
    (8, 4, "small", 2), (16, 5, "small", 2), (16, 5, "small", 3), (8, 4, "small", 3)])
def test_scan_and_uniform_agree_when_independence_covers_x(ell, n, regime, k):
    # a |X|-wise family allocates X exactly like uniformly random buckets,
    # so both paths must count the same band and, in the small regime at
    # k >= 2, the same B_J with the same frequencies
    X, Y = list(range(1, n + 1)), list(range(n - k + 1, n + 1))
    uni = check_load_lemma("uniform", X, Y, ell, regime)
    fam = check_load_lemma(TWiseFamily(n, n, ell), X, Y, ell, regime)
    assert fam.to_json() == uni.to_json()


@pytest.mark.parametrize("ell, k", [(4, 2), (8, 2), (8, 3), (8, 4), (16, 2), (16, 3)])
def test_uniform_bj_frequency_is_the_mean_over_placements(ell, k):
    # the law of the number of buckets Y fills gives the frequency that
    # the sum over every placement of Y's points gives
    for r in (1, 4, 7):
        X = list(range(1, r + k + 1))
        if not within(len(X), 1, ell, 0.9):
            continue  # not a small-regime query set
        for C_g in (2, 3):
            rep = check_load_lemma("uniform", X, X[:k], ell, "small", C_g=C_g)
            want = reference_counts.uniform_bj_frequency(r, k, ell, rep.bj_threshold)
            assert rep.bj_frequency == float(want)


def test_uniform_bj_frequency_is_quick_at_many_placements():
    # 64^5 placements of Y: a loop over them runs for hours
    with deadline(20):
        rep = check_load_lemma("uniform", range(1, 13), [1, 2, 3, 4, 5], 64, "small")
    assert (rep.bj_threshold, rep.bj_chain.tag) == (5, "holds")
    assert 0 < rep.bj_frequency <= rep.bj_chain.bound


class _WideLoads(SeededFamily):
    """2-bit allocation of 300 points onto 2 buckets: seeds 0 and 1 put
    every point in one bucket, seed 2 alternates, seed 3 splits at 200.
    It declares pairwise independence, which the large-regime chain needs."""

    domain_size, range_size, seed_bits, t = 300, 2, 2, 2
    family_id = "wide_loads"

    def eval(self, seed, x):
        if seed < 2:
            return seed + 1
        if seed == 2:
            return x % 2 + 1
        return 1 if x <= 200 else 2


def test_scan_counts_loads_above_255():
    fam = _WideLoads()
    X, Y = list(range(1, 301)), [300]
    rep = check_load_lemma(fam, X, Y, 2, "large")
    loads = [[sum(fam.eval(s, x) == b for x in X[:-1]) for b in (1, 2)]
             for s in range(4)]
    mean = 299 / 2
    bad = sum(any(abs(c - mean) >= 0.1 * mean for c in ls) for ls in loads)
    assert (bad, max(map(max, loads))) == (3, 299)
    assert rep.bad_frequency == bad / 4
    assert rep.max_load_seen == 299


@pytest.mark.parametrize("chunk_bits", [1, 4, 16])
@pytest.mark.parametrize("bj_threshold", [None, 2])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("r", [4, 7, 8, 12])
def test_scan_loads_matches_the_bucket_matrix(r, k, bj_threshold, chunk_bits, monkeypatch):
    # ell = 8: r below ell, at ell - 1, at ell and above it
    fam = TWiseFamily(2, 16, 8)
    xs = list(range(1, r + k + 1))
    ys = xs[::3][:k]
    by_points = verify._loads_by_points(r, 8)
    assert by_points == (r < 8)
    with scan_chunk_bits(chunk_bits):
        want = reference_counts.scan_loads(fam, xs, ys, 8, bj_threshold)
        got = [_scan_loads(fam, xs, ys, 8, bj_threshold)]
        if by_points:
            # the bucket-major pass on the same input
            monkeypatch.setattr(verify, "_SCATTER_PASSES", 0)
            got.append(_scan_loads(fam, xs, ys, 8, bj_threshold))
    for hist, bj_bad in got:
        assert np.array_equal(hist, want[0]) and bj_bad == want[1]
    assert want[0].sum() == fam.seed_space


@pytest.mark.parametrize("chunk_bits", [1, 4, 16])
@pytest.mark.parametrize("bj_threshold", [None, 1, 2])
@pytest.mark.parametrize("k", [1, 2])
def test_scan_loads_matches_the_bucket_matrix_on_scalar_evaluators(k, bj_threshold,
                                                                   chunk_bits):
    fam = _LastSeedPiles()
    xs, ys = [1, 2, 3, 4], [1, 3][:k]
    with scan_chunk_bits(chunk_bits):
        want = reference_counts.scan_loads(fam, xs, ys, 2, bj_threshold)
        hist, bj_bad = _scan_loads(fam, xs, ys, 2, bj_threshold)
    assert np.array_equal(hist, want[0]) and bj_bad == want[1]


class _WideBuckets(SeededFamily):
    """2-bit allocation of 300 points onto 512 buckets: seed 0 puts every
    point in bucket 1, seed 1 uses three buckets, seed 2 one bucket per
    point, and seed 3 piles the first 200 points into bucket 1."""

    domain_size, range_size, seed_bits = 300, 512, 2
    family_id = "wide_buckets"

    def eval(self, seed, x):
        return [1, x % 3 + 1, x, 1 if x <= 200 else x][seed]


def test_points_count_loads_above_255(monkeypatch):
    # r = 299 < ell = 512 stays bucket-major under the default rule
    # (r(r-1)/2 compares lose there), so the points pass is forced here
    fam = _WideBuckets()
    xs, ys = list(range(1, 301)), [300]
    assert not verify._loads_by_points(299, 512)
    want = reference_counts.scan_loads(fam, xs, ys, 512, 99)
    monkeypatch.setattr(verify, "_SCATTER_PASSES", 1000)
    assert verify._loads_by_points(299, 512)
    hist, bj_bad = _scan_loads(fam, xs, ys, 512, 99)
    assert np.array_equal(hist, want[0]) and bj_bad == want[1]
    assert np.flatnonzero(hist[0])[[0, -1]].tolist() == [1, 299]
    assert bj_bad == 2  # seeds 0 and 1: 300 shares bucket 1 with 299 and 99 points


@pytest.mark.parametrize("size, declared, actual", [(512, "large", "small"),
                                                   (2048, "small", "large")])
def test_regime_edges_are_exact(size, declared, actual):
    # at ell = 1024, |X| = 512 is exactly ell^0.9 and |X| = 2048 exactly
    # ell^1.1, so both belong to the outer regimes; the float power
    # 1024 ** 1.1 = 2048.0000000000014 put 2048 in "mid".  The regime is
    # checked before any count.
    X = list(range(1, size + 1))
    with pytest.raises(InvalidArgument, match=f"{actual!r} regime .* not {declared!r}"):
        check_load_lemma("uniform", X, [1], 1024, declared)



def test_large_regime_threshold_is_the_exact_tenth_of_the_mean():
    # r = 12 points over ell = 2 buckets: mean 6, band decided at |load - 6| >= 3/5
    rep = check_load_lemma("uniform", range(1, 14), [13], 2, "large")
    assert rep.threshold == Fraction(3, 5)


def test_load_lemma_validation():
    with pytest.raises(InvalidArgument, match="'mid' regime at ell=16, not 'small'"):
        check_load_lemma("uniform", list(range(1, 14)), [1], 16, "small")
    with pytest.raises(InvalidArgument, match="need a nonempty Y strictly inside X"):
        check_load_lemma("uniform", [1, 2, 3], [], 4, "small")
    with pytest.raises(ValueError):
        check_load_lemma("gaussian", [1, 2, 3], [1], 4, "small")
    with pytest.raises(ValueError):
        # range 8 family cannot allocate into 4 buckets
        check_load_lemma(TWiseFamily(2, 4, 8), [1, 2, 3], [1], 4, "small")
    with pytest.raises(ValueError):
        # constant families carry no moment bound in the mid regime
        check_load_lemma(TWiseFamily(1, 4, 4), [1, 2, 3, 4], [1], 4, "mid")
    with pytest.raises(ValueError, match="independence degree t"):
        # a recursive-mix PRG declares no degree t, the only one the bounds read
        check_load_lemma(RecursiveMixPRG(4, 4), [1, 2, 3], [1],
                         4, "small")
    with pytest.raises(SeedSpaceTooLarge):
        check_load_lemma(TWiseFamily(7, 8, 16), [1, 2, 3], [1], 16, "small")


@pytest.mark.parametrize("xs,ell,regime", [
    ([1, 2, 3], 16, "small"),
    ([1, 2, 3, 4], 4, "mid"),
    ([1, 2, 3], 2, "large"),
])
def test_load_lemma_rejects_y_equal_to_x(xs, ell, regime):
    # X \ Y is empty, so r = 0: the large regime's band half-width is 0
    for g in ("uniform", TWiseFamily(len(xs), 4, ell)):
        with pytest.raises(InvalidArgument, match="need a nonempty Y strictly inside X"):
            check_load_lemma(g, xs, list(reversed(xs)), ell, regime)


def test_load_lemma_rejects_duplicate_points():
    # a repeated point used to be merged, so the lemma was checked for a
    # smaller X than the one given
    for g in ("uniform", TWiseFamily(2, 8, 16)):
        for xs, ys in (([1, 1, 2, 3, 4, 5, 6], [1]), ([1, 2, 3], [1, 1])):
            with pytest.raises(InvalidArgument, match="duplicates"):
                check_load_lemma(g, xs, ys, 16, "small")


def test_load_report_json_round_trip(tmp_path):
    rep = check_load_lemma("uniform", [1, 2, 3, 4, 5, 6], [1, 2],
                           16, "small", C_g=2)
    blob = rep.to_json()
    assert blob["regime"] == "small" and blob["bj_threshold"] == 2
    assert blob["chain_tag"] in ("holds", "vacuous")
    assert isinstance(blob["closed_form_bound"], Fraction)
    verify.write_json(tmp_path / "loads.json", blob)
    written = json.loads((tmp_path / "loads.json").read_text())
    assert written["closed_form_bound"] == float(blob["closed_form_bound"])
    assert isinstance(written["closed_form_bound"], float)


# ---------------------------------------------------------------------------
# minimum tails under bounded independence
# ---------------------------------------------------------------------------


def test_tail_frozen_pairwise_case():
    # independent recount: both coefficients of the degree-1 map over GF(8)
    ctx = find_irreducible(3)
    above = 0
    for a1 in range(8):
        for a0 in range(8):
            vals = [((a0 ^ ctx.mul(a1, x - 1)) & 7) + 1 for x in (1, 2, 3)]
            if min(vals) > 2:
                above += 1
    assert above == 26
    rep, = check_twise_tails(2, 3, [2], 8)
    assert rep.exact_p == float(Fraction(26, 64))
    assert rep.reference == float(Fraction(27, 64))
    assert rep.tolerance == float(Fraction(36, 64) / 2)
    assert rep.within
    assert rep.implied_constant is not None


def test_tail_boundary_thetas():
    z, full = check_twise_tails(2, 3, [0, 8], 8)
    assert z.exact_p == 1.0 and z.reference == 1.0 and z.within
    assert z.implied_constant is None
    assert full.exact_p == 0.0 and full.within
    with pytest.raises(ValueError):
        check_twise_tails(2, 3, [9], 8)


def test_tail_single_point_is_exactly_uniform():
    for theta in range(0, 9):
        rep, = check_twise_tails(2, 1, [theta], 8)
        assert rep.exact_p == rep.reference == 1 - theta / 8
        assert rep.within


def test_tail_rejects_untestable_seed_space():
    with pytest.raises(SeedSpaceTooLarge):
        check_twise_tails(8, 8, [1], 1024)


@pytest.mark.parametrize("t,b,M", [(1, 3, 8), (2, 4, 16), (3, 4, 8)])
def test_tail_table_is_one_scan(monkeypatch, t, b, M):
    per_theta = [check_twise_tails(t, b, [theta], M)[0] for theta in range(M + 1)]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return strict_order_margins(*args, **kwargs)

    monkeypatch.setattr(verify, "strict_order_margins", counting)
    assert check_twise_tails(t, b, range(M + 1), M) == per_theta
    assert len(calls) == 1
    with pytest.raises(ValueError):
        check_twise_tails(t, b, [0, M + 1], M)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# reduction: rectangle error controls min-wise error
# ---------------------------------------------------------------------------


def test_reduction_full_independence_is_exact():
    rep = check_reduction(FullIndependencePRG(3, 4), [1, 2, 3], [2])
    assert rep.delta == 0.0
    assert rep.additive_error == 0.0
    assert rep.measured_p == rep.uniform_p
    assert rep.rectangles_checked == 4
    assert rep.precondition_ok and rep.asserted_ok()


def test_reduction_pairwise_frozen_values():
    rep = check_reduction(TWisePRG(2, 4, 8), [1, 2, 3, 4], [1])
    # independent recount of the measured probability over all 64 seeds
    fam = TWisePRG(2, 4, 8)
    seeds = np.arange(64, dtype=np.uint64)
    vals = np.stack([fam.eval_block(seeds, x) for x in (1, 2, 3, 4)])
    hits = int((vals[0] < vals[1:].min(axis=0)).sum())
    assert Fraction(hits, 64) == Fraction(7, 32)
    assert rep.measured_p == Fraction(7, 32)
    assert rep.uniform_p == Fraction(49, 256)
    assert rep.mult_error == Fraction(1, 7)
    assert rep.additive_error <= rep.additive_bound
    assert rep.precondition_ok and rep.mult_ok and rep.asserted_ok()


def test_reduction_k2_uses_difference_rectangles():
    rep = check_reduction(TWisePRG(2, 4, 8), [1, 2, 3, 4], [1, 2])
    assert rep.rectangles_checked == 16
    assert rep.k == 2
    assert rep.additive_bound == 2 * 8 * rep.delta
    assert rep.asserted_ok()


def test_reduction_four_wise_prg_has_zero_delta_at_n4():
    # 4-wise on 4 coordinates: every reduction rectangle is exact
    rep = check_reduction(TWisePRG(4, 4, 4), [1, 2, 3, 4], [2])
    assert rep.delta == 0.0
    assert rep.additive_error == 0.0


# (prg, X, Y) over every PRG kind at k = 1 and k >= 2; all but the
# full-independence cases have delta > 0
REDUCTION_CASES = {
    "fullind-k1": (lambda: FullIndependencePRG(3, 4), [1, 2, 3], [2]),
    "fullind-k2": (lambda: FullIndependencePRG(3, 4), [1, 2, 3], [3, 1]),
    "twise-k1": (lambda: TWisePRG(2, 4, 8), [1, 2, 3, 4], [1]),
    "twise-k2": (lambda: TWisePRG(2, 4, 8), [4, 2, 1], [4, 1]),
    "twise3-k2": (lambda: TWisePRG(3, 8, 8), [1, 2, 3, 4], [1, 2]),
    "recmix-k1": (lambda: RecursiveMixPRG(8, 4), [3, 4, 5], [3]),
    "recmix-k2": (lambda: RecursiveMixPRG(8, 4), [1, 2, 5, 8], [2, 5]),
    "recmix-k3": (lambda: RecursiveMixPRG(4, 4), [1, 2, 3, 4], [1, 2, 4]),
}


def _reference_reduction_rectangles(N, M, xs, ys):
    """The reduction's rectangles, built one by one."""
    rest = [x for x in xs if x not in ys]
    for theta in range(1, M + 1):
        tops = [None] if len(ys) == 1 else [theta, theta - 1]
        for top in tops:
            sets = {x: range(theta + 1, M + 1) for x in rest}
            low = {theta} if top is None else range(1, top + 1)
            sets.update({y: low for y in ys})
            yield Rectangle.build(N, M, sets)


@pytest.mark.parametrize("case", sorted(REDUCTION_CASES))
def test_reduction_counts_match_rectangle_hits_exact(case):
    make, X, Y = REDUCTION_CASES[case]
    prg = make()
    N, M = prg.domain_size, prg.range_size
    rest = [x for x in X if x not in Y]
    tails, total = reference_counts.order_statistic_tails(prg, Y, rest)
    reference = [hits for _, _, hits
                 in reference_counts.reduction_counts_from_tails(tails, len(Y))]
    at_max, at_min, _ = strict_order_margins(prg, Y, rest)
    got = [hits for _, _, hits in _reduction_counts(at_max, at_min, len(Y))]
    rects = list(_reference_reduction_rectangles(N, M, X, Y))
    want = [rectangle_hits_exact(prg, rect)[0] for rect in rects]
    assert got == reference == want
    delta = max(abs(Fraction(hits, total) - rect.uniform_expectation())
                for hits, rect in zip(want, rects))

    rep = check_reduction(prg, X, Y)
    assert rep.rectangles_checked == len(rects) == (M if len(Y) == 1 else 2 * M)
    assert rep.delta == float(delta)
    assert (rep.delta > 0) == (not case.startswith("fullind"))
    ref = measure_minwise(prg, X, Y)
    assert (rep.measured_p, rep.uniform_p) == (ref.measured_p, ref.uniform_ref)


def test_reduction_report_does_not_depend_on_threads():
    # 21 seed bits: 32 seed blocks shared by the two workers
    prg = RecursiveMixPRG(8, 8)
    reports = [check_reduction(prg, [1, 2, 3, 4], [1, 2], threads=n).to_json()
               for n in (1, 2)]
    assert reports[0] == reports[1]
    assert reports[0]["delta"] > 0


@pytest.mark.parametrize("M", [4, 16, 64])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_reduction_margins_match_the_order_statistic_table(k, M):
    prg = TWisePRG(2, 6, M)
    xs = [2, 5, 1, 6, 3]
    ys, rest = xs[:k], xs[k:]
    want_counts, want_measured, want_total = reference_counts.reduction_counts(prg, ys, rest)
    at_max, at_min, total = strict_order_margins(prg, ys, rest)
    assert list(_reduction_counts(at_max, at_min, k)) == want_counts
    assert (int(at_max.sum()), total) == (want_measured, want_total)
    assert len(at_max) == len(at_min) == M + 1
    assert at_max.sum() == at_min.sum() and at_max[0] == at_min[0] == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_output_is_byte_stable(tmp_path):
    fam = TWiseFamily(2, 4, 8)
    reports = [measure_minwise(fam, [1, 2, 3, 4], [y]) for y in (1, 2)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_reports_csv(p1, reports)
    write_reports_csv(p2, reports)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == CSV_SCHEMA
    assert len(lines) == 4
    # family ids may contain commas, so parse properly
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == CSV_COLUMNS
    # floats are serialized via repr and parse back exactly
    assert float(rows[1][7]) == reports[0].measured_p


def test_csv_empty_corpus_is_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    write_reports_csv(p, [])
    assert p.read_text() == CSV_SCHEMA + "\n" + ",".join(CSV_COLUMNS) + "\n"


def test_summary_statistics():
    fam = TWiseFamily(2, 4, 8)
    reports = [measure_minwise(fam, [1, 2, 3, 4], [y]) for y in (1, 2, 3)]
    s = exact_summary(reports)
    assert s["queries"] == 3
    assert s["max_mult_err_uniform"] == max(r.mult_err_uniform for r in reports)
    vals = sorted(r.mult_err_uniform for r in reports)
    assert s["median_mult_err_uniform"] == vals[1]
    empty = exact_summary([])
    assert empty["queries"] == 0 and empty["max_mult_err_uniform"] is None


def test_bound_check_tags():
    assert BoundCheck.make("x", 0.5, 2.0).tag == "vacuous"
    assert BoundCheck.make("x", 0.5, 0.5).tag == "holds"
    assert BoundCheck.make("x", 0.6, 0.5).tag == "fails"
    assert BoundCheck.make("x", Fraction(1, 3), Fraction(1, 3)).ok
    # exact: no slack lets a violation of 10^-13 pass
    assert BoundCheck.make("x", Fraction(1, 3) + Fraction(1, 10 ** 13), Fraction(1, 3)).tag \
        == "fails"
    # a bound times a rational power: 4 * 16^(-1/10) is 2^1.6, above 1
    assert BoundCheck.make("x", Fraction(1, 2), 4, 16, Fraction(-1, 10)).tag == "vacuous"
    # (1/2) * 1024^(1/10) is exactly 1: met, and not vacuous
    half = (Fraction(1, 2), 1024, Fraction(1, 10))
    assert BoundCheck.make("x", 1, *half).tag == "holds"
    assert BoundCheck.make("x", 1 + Fraction(1, 10 ** 13), *half).tag == "fails"


# ---------------------------------------------------------------------------
# one exhaustive scan behind every exact oracle
# ---------------------------------------------------------------------------

# each oracle on a 25-bit seed space, one bit over the exhaustive budget
WIDE_ORACLES = {
    "measure_minwise": lambda: measure_minwise(
        TWiseFamily(5, 8, 32), [1, 2, 3], [1]),
    "scan_loads": lambda: _scan_loads(
        TWiseFamily(5, 8, 32), [1, 2, 3], [1], 32, None),
    "check_twise_tails": lambda: check_twise_tails(5, 3, [1], 32),
    "rectangle_hits_exact": lambda: rectangle_hits_exact(
        TWisePRG(5, 32, 32), threshold_rectangle(32, 32, 1)),
}


@pytest.mark.parametrize("oracle", sorted(WIDE_ORACLES))
def test_oracle_refuses_seed_space_over_budget(oracle):
    with pytest.raises(SeedSpaceTooLarge, match="25 seed bits"):
        WIDE_ORACLES[oracle]()


class _CountingPRG(FullIndependencePRG):
    """Full-independence PRG that counts its coordinate-block calls."""

    calls = 0

    def coord_block(self, seeds, coords):
        self.calls += 1
        return super().coord_block(seeds, coords)


def _rectangle_early_exit(chunk_bits):
    # coordinate 2 is seed bits 2-3, constant on every 4-seed block, so
    # at chunk_bits=2 three blocks in four are empty after it and skip
    # coordinate 3
    prg = _CountingPRG(4, 4)
    rect = Rectangle.build(4, 4, {2: {1}, 3: {1, 2}})
    with scan_chunk_bits(chunk_bits):
        hits, total = rectangle_hits_exact(prg, rect)
    if chunk_bits == 2:
        assert prg.calls == 64 + 16
    return hits, total


def _tail(chunk_bits):
    with scan_chunk_bits(chunk_bits):
        return check_twise_tails(2, 4, [3], 16)[0].exact_p


def _mc_rectangle_error(chunk_bits):
    # 3001 samples: 751 row blocks at chunk_bits = 2, the last one short,
    # and one block at 20
    prg = TWisePRG(2, 8, 8)
    rect = Rectangle.build(8, 8, {1: {1, 2, 3}, 4: {2, 5, 8}, 7: range(4, 9)})
    with scan_chunk_bits(chunk_bits):
        return rectangle_error(prg, rect, samples=3001, run_seed=9)


@pytest.mark.parametrize("oracle", [_rectangle_early_exit, _tail, _mc_rectangle_error],
                         ids=["rectangle_hits_exact", "check_twise_tails",
                              "mc_rectangle_error"])
def test_oracle_chunking_is_invisible(oracle):
    assert oracle(2) == oracle(20)
