"""Ground-truth oracles for (k-)min-wise error and the supporting lemmas.

Everything here is measured, not assumed: a scan enumerates the full
seed space and reports exact fractions unless it is given a sample
count, the explicit Monte-Carlo opt-in, whose counter-based RNG keeps
every report exactly reproducible.  Inequalities asserted by these
oracles are instantiated proof-chain bounds (valid at any scale); the
asymptotic closed forms they descend from are reported alongside with a
holds/fails/vacuous tag, since desk-scale constants rarely satisfy their
hypotheses.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from . import kwise
# measure writes its summary through verify.write_json, where
# perfbench/trace_cli.py times it
from .config import power_bound, within, write_json, write_text, written  # noqa: F401
from .errors import InvalidArgument
from .kwise import SeededFamily, scan
from .rectprg import RectanglePRG, TWisePRG, strict_order_margins
# bound here only so that perfbench/trace_cli.py finds it under this name
from .rectprg import rectangle_hits_exact  # noqa: F401

CSV_SCHEMA = "# minwise-lab schema v1"
CSV_COLUMNS = [
    "family_id", "N", "M", "k", "|X|", "mode", "samples",
    "measured_p", "uniform_ref", "fair_p",
    "mult_err_uniform", "mult_err_fair", "tie_mass", "ci_halfwidth",
]


@lru_cache(maxsize=None)
def uniform_minwise_probability(sizeX: int, M: int, k: int = 1) -> Fraction:
    """Exact Pr[max h(Y) < min h(X\\Y)] under uniformly random h, |Y| = k.

    Closed form by enumerating the maximum theta of the bottom-k values:
    sum_theta [(theta/M)^k - ((theta-1)/M)^k] * ((M-theta)/M)^(|X|-k).
    The Fraction is immutable, so it is computed once per (|X|, M, k).
    """
    if M < 2:
        raise InvalidArgument("alphabet M must be >= 2")
    if not 1 <= k <= sizeX:
        raise InvalidArgument(f"need 1 <= k <= |X|, got k={k}, |X|={sizeX}")
    total = Fraction(0)
    rest = sizeX - k
    for theta in range(1, M + 1):
        top = Fraction(theta, M) ** k - Fraction(theta - 1, M) ** k
        total += top * Fraction(M - theta, M) ** rest
    return total


@dataclass
class ErrorReport:
    """One measured (family, X, Y) query with both reference comparisons."""

    family_id: str
    N: int
    M: int
    k: int
    sizeX: int
    mode: str
    samples: int
    measured_p: Fraction
    uniform_ref: Fraction
    fair_p: Fraction
    mult_err_uniform: Fraction
    mult_err_fair: Fraction
    tie_mass: Fraction
    ci_halfwidth: float  # a square root, 0.0 in an exhaustive run

    def csv_row(self) -> list[str]:
        values = (written(getattr(self, f.name)) for f in fields(self))
        return [v if isinstance(v, str) else repr(v) for v in values]


def _query_sets(X, Y) -> tuple[list[int], list[int]]:
    """X and Y as lists of ints, checked as a query; a scan's plan checks
    their points."""
    xs, ys = [int(v) for v in X], [int(v) for v in Y]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise InvalidArgument("X and Y must not contain duplicates")
    if not set(ys) <= set(xs):
        raise InvalidArgument("Y must be a subset of X")
    if not ys or set(ys) == set(xs):
        raise InvalidArgument("need a nonempty Y strictly inside X")
    return xs, ys


def _query_counts(vals: np.ndarray, rows: list[tuple[list[int], list[int]]],
                  weights: np.ndarray | None = None) -> np.ndarray:
    """(queries, 2) int64 counts of (max h(Y) < min h(X\\Y), equality).

    Column j of ``vals`` holds the values at the corpus points of one
    seed, or of ``weights[j]`` seeds when weights are given; each query
    reads its rows by index.
    """
    counts = np.empty((len(rows), 2), dtype=np.int64)
    for q, (y_rows, rest_rows) in enumerate(rows):
        max_y = vals[y_rows].max(axis=0)
        min_rest = vals[rest_rows].min(axis=0)
        below, tied = max_y < min_rest, max_y == min_rest
        counts[q] = ((np.count_nonzero(below), np.count_nonzero(tied)) if weights is None
                     else (weights[below].sum(), weights[tied].sum()))
    return counts


def _block_counts(plan: Callable, seeds: np.ndarray, points: list[int],
                  rows: list[tuple[list[int], list[int]]], M: int) -> np.ndarray:
    """_query_counts on one block.

    The plan is bound to the block once, and each distinct point is
    evaluated by it into a (points, seeds) value matrix in the narrowest
    dtype that holds [1, M].
    """
    vals = np.empty((len(points), len(seeds)), dtype=np.min_scalar_type(M))
    evaluate = plan(seeds)
    for i, x in enumerate(points):
        vals[i] = evaluate(x)
    del evaluate  # the block's unpacked seeds go before the queries allocate
    return _query_counts(vals, rows)


def _joint_law(plan: Callable, seeds: np.ndarray, points: list[int], M: int) -> np.ndarray:
    """The block's histogram of h on ``points``, over M^P cells.

    A seed with values v_1..v_P at the points, in their order, counts in
    cell sum_i (v_i - 1) * M^(P-i).  The caller keeps M^P within one
    block, and codes are computed in the narrowest unsigned dtype that
    holds M^P - 1: every step is arithmetic modulo 2^bits of that dtype,
    so values that wrap on the way (v_i = M at P = 1 included) still end
    at the code, which lies in [0, M^P).
    """
    cells = M ** len(points)
    evaluate = plan(seeds)
    # a copy: the evaluator's arrays are read, never written
    code = evaluate(points[0]).astype(np.min_scalar_type(cells - 1))
    for x in points[1:]:
        code *= M
        code += evaluate(x)
    # every v_i - 1 at once: the code of all ones
    code -= (cells - 1) // (M - 1)
    return np.bincount(code, minlength=cells)


def measure_corpus(
    family: SeededFamily,
    queries,
    *,
    samples: int | None = None,
    run_seed: int | None = None,
    threads: int = 1,
) -> list[ErrorReport]:
    """Measure Pr[max h(Y) < min h(X\\Y)] for every (X, Y) in ``queries``.

    Strict inequalities throughout.  The seeds are those of kwise.scan
    for ``samples`` and ``run_seed``: without ``samples`` every seed, and
    the reports are exact, with mode "exhaustive"; with it the reports are
    Monte-Carlo ("mc"), each with the half-width of a 99% Wilson score
    interval.  With ``threads`` > 1 the blocks are split across that many
    forked processes, with the same result.
    Ties (max h(Y) == min h(X\\Y)) are reported separately: they are
    exactly the mass the strict convention loses at finite M.  The
    family is bound to the corpus's distinct points once, before the
    scan, and each is evaluated once per seed block, in corpus order,
    whatever the number of queries that contain it.  When
    the P distinct points have M^P <= 2^SCAN_CHUNK_BITS value vectors,
    no more cells than a block has seeds, the scan counts only the joint
    law of h on them, and every query is read off that histogram once
    the scan is done.  Larger corpora count every query on every block.
    A library caller runs under the C library's malloc thresholds, not
    the CLI's: under glibc it gets the CLI's speed, about 6% less time a
    Monte-Carlo chunk, by setting ``MALLOC_MMAP_THRESHOLD_=33554432`` and
    ``MALLOC_TRIM_THRESHOLD_=8388608`` in the environment (the trim
    threshold alone fixes the mmap threshold at 128 KiB, which is slower).
    """
    sets = [_query_sets(X, Y) for X, Y in queries]
    if not sets:
        return []
    points = list(dict.fromkeys(x for xs, _ in sets for x in xs))
    row = {x: i for i, x in enumerate(points)}
    rows = [([row[y] for y in ys], [row[x] for x in xs if x not in ys])
            for xs, ys in sets]
    M, P = family.range_size, len(points)
    plan = family.bind(points)

    if M ** P <= 1 << kwise.SCAN_CHUNK_BITS:
        def count(seeds):
            return _joint_law(plan, seeds, points, M)

        law, total = scan(family, count, samples=samples, run_seed=run_seed, threads=threads)
        seen = np.flatnonzero(law)
        # row i of the seen cells' value vectors is digit P-1-i in base M
        place = M ** np.arange(P - 1, -1, -1, dtype=np.int64)
        counts = _query_counts(seen // place[:, None] % M, rows, law[seen])
    else:
        def count(seeds):
            return _block_counts(plan, seeds, points, rows, M)

        counts, total = scan(family, count, samples=samples, run_seed=run_seed,
                             threads=threads)
    return [_error_report(family, xs, ys, samples, int(hits), int(ties), total)
            for (xs, ys), (hits, ties) in zip(sets, counts)]


def _wilson_halfwidth(hits: int, total: int) -> float:
    """Half the width of the 99% Wilson score interval for hits/total.

    Unlike the normal approximation it stays positive at 0 and total
    hits, where a finite sample still leaves the proportion uncertain.
    """
    z = 2.576
    p, zz = hits / total, z * z / total
    return z / (1.0 + zz) * math.sqrt(p * (1.0 - p) / total + zz / (4.0 * total))


def _error_report(family: SeededFamily, xs: list[int], ys: list[int],
                  samples: int | None, hits: int, ties: int, total: int) -> ErrorReport:
    """The report of one query: exhaustive when no sample count was given."""
    k = len(ys)
    uniform = uniform_minwise_probability(len(xs), family.range_size, k)
    fair = Fraction(1, math.comb(len(xs), k))
    measured = Fraction(hits, total)
    return ErrorReport(
        family_id=family.family_id, N=family.domain_size, M=family.range_size, k=k,
        sizeX=len(xs), mode="exhaustive" if samples is None else "mc", samples=total,
        measured_p=measured, uniform_ref=uniform, fair_p=fair,
        mult_err_uniform=abs(measured - uniform) / uniform,
        mult_err_fair=abs(measured - fair) / fair, tie_mass=Fraction(ties, total),
        ci_halfwidth=0.0 if samples is None else _wilson_halfwidth(hits, total),
    )


def measure_minwise(
    family: SeededFamily,
    X,
    Y,
    *,
    samples: int | None = None,
    run_seed: int | None = None,
) -> ErrorReport:
    """Measure one query: measure_corpus on the corpus [(X, Y)]."""
    return measure_corpus(family, [(X, Y)], samples=samples, run_seed=run_seed)[0]


# ---------------------------------------------------------------------------
# allocation load checks
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    """One inequality: measured frequency vs a bound, as power_bound holds it."""

    description: str
    frequency: Fraction
    bound: Fraction | float
    vacuous: bool
    ok: bool

    @classmethod
    def make(cls, description: str, frequency, bound, base=1, power=0) -> "BoundCheck":
        """frequency <= bound * base^power by within, vacuous above 1."""
        vac = not within(bound, 1, base, -power)
        ok = vac or within(frequency, bound, base, power)
        return cls(description, frequency, power_bound(bound, base, power), vac, ok)

    @property
    def tag(self) -> str:
        if self.vacuous:
            return "vacuous"
        return "holds" if self.ok else "fails"


@dataclass
class LoadReport:
    regime: str
    ell: int
    sizeX: int
    k: int
    r: int
    threshold: Fraction | float  # a float in the mid regime: mean + ell^0.1
    bad_frequency: Fraction
    max_load_seen: int
    chain: BoundCheck
    closed_form: BoundCheck
    bj_threshold: int | None = None
    bj_frequency: Fraction | None = None
    bj_chain: BoundCheck | None = None

    def asserted_ok(self) -> bool:
        return self.chain.ok and (self.bj_chain is None or self.bj_chain.ok)

    def to_json(self) -> dict:
        """Every field that is set, a check as its bound and its tag."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, BoundCheck):
                out.update({f"{f.name}_bound": value.bound, f"{f.name}_tag": value.tag})
            elif value is not None:
                out[f.name] = value
        return out


def binomial_central_moment(r: int, p: Fraction, e: int) -> Fraction:
    """Exact e-th central moment of Binomial(r, p)."""
    mean = r * p
    total = Fraction(0)
    for j in range(r + 1):
        w = math.comb(r, j) * p ** j * (1 - p) ** (r - j)
        total += w * (Fraction(j) - mean) ** e
    return total


def binomial_tail_at_least(r: int, p: Fraction, u: int) -> Fraction:
    """Exact Pr[Binomial(r, p) >= u]."""
    if u <= 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(u, r + 1):
        total += math.comb(r, j) * p ** j * (1 - p) ** (r - j)
    return total


def _bounded_count_poly(r: int, lo: int, hi: int, ell: int) -> Fraction:
    """Exact Pr[every bucket load in [lo, hi]] for r uniform balls, ell buckets.

    Exponential-generating-function count: r! * [x^r] (sum_{c=lo}^{hi}
    x^c / c!)^ell / ell^r.  A power series sum_d a_d x^d / d! is kept as
    its integers a_d, which multiply by the binomial convolution
    sum_i C(d, i) a_i b_(d-i), so a_r counts the placements of the r
    labelled balls with every load in the band.  The base is raised to
    the power ell by squaring, truncated past x^r: O(r^2 log ell) integer
    products, where multiplying by the base ell times costs O(ell r^2)
    rational ones.
    """
    def times(p: list[int], q: list[int]) -> list[int]:
        # row is Pascal's row d, each built from the one before
        product, row = [], [1]
        for d in range(r + 1):
            product.append(sum(c * a * b for c, a, b in zip(row, p, q[d::-1])))
            row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
        return product

    base = [int(lo <= c <= hi) for c in range(r + 1)]
    poly, power = [1] + [0] * r, ell
    while power:
        if power & 1:
            poly = times(poly, base)
        power >>= 1
        if power:
            base = times(base, base)
    return Fraction(poly[r], ell ** r)


# A per-point scatter-add into a block's (ell, block) load matrix costs
# about as much as this many elementwise compare-and-add passes over the
# block's bucket indices.  On 2^16 seeds (2 vCPUs, numpy 2.4) one pass
# takes 20-30 us and one scatter 0.7 ms at ell = 32 and 3-4 ms at
# ell = 512, where the matrix leaves the cache.
_SCATTER_PASSES = 100


def _loads_by_points(r: int, ell: int) -> bool:
    """Whether _scan_loads counts r points into ell buckets by points.

    By points, a block costs the r(r-1)/2 compare-and-add passes between
    pairs of points; bucket-major, r scatter-adds of _SCATTER_PASSES
    passes each.  So points win up to r = 2 * _SCATTER_PASSES + 1: at
    r = 300, ell = 512 their 44,850 passes take 1.6 s a block against
    1.1 s for the bucket pass.  Only r < ell guarantees an empty bucket.
    """
    return 0 < r < ell and r * (r - 1) // 2 <= _SCATTER_PASSES * r


def _largest_multiplicity(cols: list[np.ndarray], dtype) -> np.ndarray:
    """Per seed, the largest number of equal values among ``cols``.

    A column's value occurs at least once more for each later column
    equal to it, and exactly that often from its first occurrence on,
    so the largest such count is the largest multiplicity.
    """
    top = np.ones(len(cols[0]), dtype=dtype)
    seen = np.empty_like(top)
    equal = np.empty(len(top), dtype=bool)
    for i, col in enumerate(cols[:-1]):
        seen.fill(1)
        for later in cols[i + 1:]:
            seen += np.equal(col, later, out=equal)
        np.maximum(top, seen, out=top)
    return top


# seeds per count slice of a loads block: the plan is bound and its
# columns, cells and intp bincount copy (128 KiB) are made for 2^14 seeds
# at a time, where a whole 2^16-seed block's copy alone would be 512 KiB
_COUNT_SLICE = 1 << 14


def _scan_loads(g_family: SeededFamily, xs, ys, ell: int,
                bj_threshold: int | None):
    """Exhaustive chunked scan of g-seeds: (min, max) load histogram, B_J tail.

    Returns (hist, bj_bad).  hist[a, b] counts the seeds whose least
    bucket load of X\\Y is a and whose largest is b, so any band of
    allowed loads [lo, hi] is counted by hist[lo:, :hi + 1].  bj_bad
    counts the seeds where the buckets holding Y receive at least
    ``bj_threshold`` points of X\\Y (0 when it is None), by r * |Y|
    compares of bucket indices.

    g is bound to the points once, before the scan, and to each
    _COUNT_SLICE sub-range of a block once, and each point's bucket is
    evaluated once.  When _loads_by_points(r, ell) holds, with
    r = |X\\Y| < ell, the least load is 0 and the largest is the largest
    multiplicity among the r bucket indices, so no load is stored.
    Otherwise the points are added into an (ell, slice) matrix, which is
    reduced elementwise over its ell contiguous rows.
    """
    rest = [x for x in xs if x not in ys]
    r = len(rest)
    side = r + 1
    by_points = _loads_by_points(r, ell)
    bucket, load = np.min_scalar_type(ell), np.min_scalar_type(r)
    pair = np.min_scalar_type(side * side - 1)  # a (least, largest) load cell
    plan = g_family.bind(rest if bj_threshold is None else [*ys, *rest])

    def count(block):
        total = np.zeros(side * side + 1, dtype=np.int64)
        for lo in range(0, len(block), _COUNT_SLICE):
            seeds = block[lo:lo + _COUNT_SLICE]
            n = len(seeds)
            # every evaluation is a fresh array that the count only reads,
            # so a column already of the bucket type is taken as it is
            evaluate = plan(seeds)
            if bj_threshold is not None:
                j_buckets = [evaluate(y).astype(bucket, copy=False) for y in ys]
                in_j = np.zeros(n, dtype=load)
            if by_points:
                cols = []
            else:
                loads = np.zeros((ell, n), dtype=load)
                # (b - 1) * n + j is the cell of bucket b at seed j
                cell = np.arange(-n, 0)
            for x in rest:
                col = evaluate(x).astype(bucket, copy=False)
                if bj_threshold is not None:
                    hit = col == j_buckets[0]
                    for b in j_buckets[1:]:
                        hit |= col == b
                    in_j += hit
                if by_points:
                    cols.append(col)
                else:
                    index = col.astype(np.intp)
                    index *= n
                    index += cell
                    loads.reshape(-1)[index] += 1
            if by_points:
                cells = _largest_multiplicity(cols, load)
            else:
                cells = loads.min(axis=0).astype(pair) * side + loads.max(axis=0)
            # bincount reads intp, so it widens the slice's narrow cells
            total[:-1] += np.bincount(cells, minlength=side * side)
            if bj_threshold is not None:
                total[-1] += np.count_nonzero(in_j >= bj_threshold)
        return total

    total = scan(g_family, count)[0]
    return total[:-1].reshape(side, side), int(total[-1])


def check_load_lemma(
    g_family,
    X,
    Y,
    ell: int,
    regime: str,
    C: int = 1,
    C_g: int = 2,
) -> LoadReport:
    """Audit the allocation-load claims for one (X, Y) at bucket count ell.

    ``g_family`` is a SeededFamily onto [ell] (exhaustively enumerated)
    or the string "uniform" for the exact multinomial computation, with
    B_J read off the law of the number of buckets Y fills — the two
    coincide whenever the family's independence covers |X|.  The
    bounds take that independence from the family's own degree ``t``
    (InvalidArgument for a family without one), and take |X| for
    "uniform".  X and Y are checked as every query is.  Each
    regime fixes one integer band [lo, hi] of allowed loads of X\\Y, and
    both paths report the frequency of some load leaving it.

    The asserted inequality per regime is the instantiated proof-chain
    bound (a finite-scale theorem): the union-over-subsets bound in the
    small regime and the even-central-moment Markov bound in the mid
    and large regimes.  The asymptotic closed form (1/ell^(3C) and
    friends) is reported with a holds/fails/vacuous tag but never
    asserted, since its hidden constants have no desk-scale value.
    """
    xs, ys = _query_sets(X, Y)
    k = len(ys)
    r = len(xs) - k

    # |X| <= ell^0.9 is small and ell^1.1 <= |X| large
    actual = ("small" if within(len(xs), 1, ell, 0.9)
              else "large" if within(1, len(xs), ell, -1.1) else "mid")
    if regime != actual:
        raise InvalidArgument(
            f"|X|={len(xs)} is in the {actual!r} regime at ell={ell}, "
            f"not {regime!r}"
        )

    uniform_g = isinstance(g_family, str)
    if uniform_g:
        if g_family != "uniform":
            raise InvalidArgument(f"unknown allocation sentinel {g_family!r}")
        indep = r + k
    else:
        if g_family.range_size != ell:
            raise InvalidArgument(
                f"allocation family range {g_family.range_size} != ell {ell}"
            )
        indep = getattr(g_family, "t", None)
        if indep is None:
            raise InvalidArgument("the allocation family declares no independence degree t")

    p1 = Fraction(1, ell)
    mean = r * p1
    bj_thr = None
    if regime == "small":
        if k == 1:
            u = C_g
        else:
            # the lemma's t = log2 ell, rounded and at least 1; no caller sets it
            t = max(1, round(math.log2(ell)))
            u = C_g + 10 * k * math.log2(max(2, len(xs))) / t
            bj_thr = min(max(1, (C_g - 1) * k), max(1, indep - k))
        u_eff = min(max(1, math.ceil(u)), indep)
        threshold, lo, hi = Fraction(u_eff), 0, u_eff - 1
    else:
        # mid and large regimes share the even-moment machinery, which
        # needs at least pairwise independence to be a theorem
        if indep < 2:
            raise InvalidArgument("mid/large regime chains need >= pairwise independence")
        e = min(indep if indep % 2 == 0 else indep - 1, 12)
        mu = binomial_central_moment(r, p1, e)
        # a load is bad at load - mean >= ell^0.1 (mid) or
        # |load - mean| >= mean/10 (large); the band holds the loads left
        if regime == "mid":
            threshold, lo = float(mean) + ell ** 0.1, 0
            # the last load L below mean + ell^0.1: 1 <= (L + 1 - mean) * ell^-0.1
            hi = next(L for L in itertools.count() if within(1, L + 1 - mean, ell, -0.1))
        else:
            threshold = a = mean / 10
            lo, hi = math.floor(mean - a) + 1, math.ceil(mean + a) - 1

    if uniform_g:
        freq = 1 - _bounded_count_poly(r, lo, hi, ell)
        max_seen = r
        if bj_thr is not None:
            # B_J ~ Binomial(r, j/ell) given the j distinct buckets of Y;
            # ways[j] counts the placements of Y's points that fill j
            ways = [1]
            for _ in range(k):
                ways = [j * w + (ell - j + 1) * v
                        for j, (w, v) in enumerate(zip([*ways, 0], [0, *ways]))]
            bj_freq = sum(w * binomial_tail_at_least(r, Fraction(j, ell), bj_thr)
                          for j, w in enumerate(ways)) / ell ** k
    else:
        hist, bj_bad = _scan_loads(g_family, xs, ys, ell, bj_thr)
        freq = 1 - Fraction(int(hist[lo:, :hi + 1].sum()), g_family.seed_space)
        max_seen = int(np.flatnonzero(hist.any(axis=0))[-1])
        bj_freq = Fraction(bj_bad, g_family.seed_space)

    if regime == "small":
        chain = BoundCheck.make(
            f"Pr[any load >= {u_eff}] <= ell*C(r,{u_eff})/ell^{u_eff}",
            freq, min(Fraction(1), ell * math.comb(r, u_eff) * p1 ** u_eff),
        )
        if k == 1:
            closed = BoundCheck.make(
                "1/ell^(3C)", freq, Fraction(1, ell ** (3 * C)))
        else:
            closed = BoundCheck.make(
                "1/(ell^(3C)*|X|^k)", freq,
                Fraction(1, ell ** (3 * C) * len(xs) ** k))
    elif regime == "mid":
        chain = BoundCheck.make(
            f"Pr[any load - mean >= ell^0.1] <= ell*mu_{e}/ell^(0.1*{e})",
            freq, ell * mu, ell, Fraction(-e, 10),
        )
        closed = BoundCheck.make(
            "1/ell^(3C*k)" if k > 1 else "1/ell^(3C)",
            freq, Fraction(1, ell ** (3 * C * k)))
    else:
        chain = BoundCheck.make(
            f"Pr[any |load - mean| >= 0.1*mean] <= ell*mu_{e}/(0.1*mean)^{e}",
            freq, ell * mu / a ** e,
        )
        closed = BoundCheck.make(
            "1/|X|^(3C*k)" if k > 1 else "1/|X|^(3C)",
            freq, Fraction(1, len(xs) ** (3 * C * k)))
    report = LoadReport(
        regime, ell, len(xs), k, r, threshold, freq, max_seen, chain, closed,
    )
    if bj_thr is not None:
        report.bj_threshold = bj_thr
        report.bj_frequency = bj_freq
        report.bj_chain = BoundCheck.make(
            f"Pr[|B_J| >= {bj_thr}] <= C(r,{bj_thr})*(k/ell)^{bj_thr}",
            bj_freq, min(Fraction(1), math.comb(r, bj_thr) * Fraction(k, ell) ** bj_thr),
        )
    return report


# ---------------------------------------------------------------------------
# t-wise minimum tail
# ---------------------------------------------------------------------------


@dataclass
class TailReport:
    t: int
    b: int
    theta: int
    M: int
    exact_p: Fraction
    reference: Fraction
    tolerance: Fraction
    within: bool
    implied_constant: float | None  # a (2/t)-th power

    def to_json(self) -> dict:
        return asdict(self)


def check_twise_tails(t: int, b: int, thetas, M: int) -> list[TailReport]:
    """Exact Pr[min of b t-wise values > theta] vs the truncation bound,
    one report per theta in ``thetas``, all from one seed scan.

    Asserts the two-sided inclusion-exclusion estimate
    |Pr - (1 - theta/M)^b| <= (b*theta/M)^t / t!, a theorem for any
    t-wise family.  The sub-gaussian-style second estimate involves an
    unspecified universal constant, so the implied constant is reported
    instead of asserted.
    """
    thetas = [int(theta) for theta in thetas]
    for theta in thetas:
        if not 0 <= theta <= M:
            raise InvalidArgument(f"theta {theta} outside [0, {M}]")
    _, at_min, total = strict_order_margins(TWisePRG(t, b, M), [], range(1, b + 1))
    at_most = at_min.cumsum()
    reports = []
    for theta in thetas:
        exact = Fraction(total - int(at_most[theta]), total)
        reference = (1 - Fraction(theta, M)) ** b
        tolerance = Fraction(b * theta, M) ** t / math.factorial(t)
        implied = None
        if theta > 0 and exact > 0:
            implied = float(exact) ** (2.0 / t) * (b * theta / M) / t
        reports.append(TailReport(
            t, b, theta, M, exact, reference, tolerance,
            within(abs(exact - reference), tolerance), implied,
        ))
    return reports


# ---------------------------------------------------------------------------
# reduction audit: rectangle error bounds min-wise error
# ---------------------------------------------------------------------------


@dataclass
class ReductionReport:
    N: int
    M: int
    k: int
    sizeX: int
    delta: Fraction
    rectangles_checked: int
    measured_p: Fraction
    uniform_p: Fraction
    additive_error: Fraction
    additive_bound: Fraction
    mult_error: Fraction
    mult_bound: Fraction
    precondition_ok: bool
    additive_ok: bool
    mult_ok: bool

    def asserted_ok(self) -> bool:
        return self.additive_ok and (not self.precondition_ok or self.mult_ok)

    def to_json(self) -> dict:
        return asdict(self)


def _reduction_counts(at_max: np.ndarray, at_min: np.ndarray, k: int):
    """(choices, theta, seeds) for each rectangle behind the reduction bound.

    ``at_max`` and ``at_min`` are strict_order_margins over (Y, X\\Y): the
    seeds with a = max h(Y) below b = min h(X\\Y), by a and by b.  Each
    rectangle asks every point of X\\Y for a value above theta and every
    y in Y for one of ``choices`` values: h(y) = theta when k = 1, read
    straight off at_max, and h(y) <= top for top in (theta, theta - 1)
    when k >= 2.  Those two count #{a <= theta < b} and #{a < theta < b}:
    each seed adds 1 from a (from a + 1 for the second) and takes it
    away again at b, so both are prefix sums, #{a <= top} - #{b <= theta}.
    """
    M = len(at_max) - 1
    if k == 1:
        for theta in range(1, M + 1):
            yield 1, theta, int(at_max[theta])
        return
    a_at_most, b_at_most = at_max.cumsum(), at_min.cumsum()
    for theta in range(1, M + 1):
        for top in (theta, theta - 1):
            yield top, theta, int(a_at_most[top] - b_at_most[theta])


def check_reduction(prg: RectanglePRG, X, Y, threads: int = 1) -> ReductionReport:
    """Exact audit: min-wise error of the PRG-as-family vs its rectangle error.

    delta is the maximum additive rectangle error over the reduction's
    own rectangles; the asserted inequalities are
    |measured - uniform| <= M*delta (2M*delta for k >= 2) and, when the
    uniform probability clears the reduction's floor 0.5*k!/N^k, the
    multiplicative form with bound 2NM*delta (k = 1) or
    (N^k/k!)*4M*delta.  Both sides are exact rationals, counted in one
    scan of the seed space (split over ``threads`` forked workers) that
    keeps O(M) counts: strict_order_margins.
    """
    xs, ys = _query_sets(X, Y)
    k = len(ys)
    N, M = prg.domain_size, prg.range_size
    rest = [x for x in xs if x not in ys]
    at_max, at_min, total = strict_order_margins(prg, ys, rest, threads=threads)
    measured = Fraction(int(at_max.sum()), total)
    uniform = uniform_minwise_probability(len(xs), M, k)

    errors = [
        abs(Fraction(hits, total)
            - Fraction(choices, M) ** k * Fraction(M - theta, M) ** len(rest))
        for choices, theta, hits in _reduction_counts(at_max, at_min, k)
    ]
    delta = max(errors)

    additive = abs(measured - uniform)
    additive_bound = (M if k == 1 else 2 * M) * delta
    mult = additive / uniform
    if k == 1:
        mult_bound = 2 * N * M * delta
    else:
        mult_bound = Fraction(N ** k * 4 * M, math.factorial(k)) * delta

    return ReductionReport(
        N=N, M=M, k=k, sizeX=len(xs), delta=delta, rectangles_checked=len(errors),
        measured_p=measured, uniform_p=uniform, additive_error=additive,
        additive_bound=additive_bound, mult_error=mult, mult_bound=mult_bound,
        precondition_ok=within(Fraction(math.factorial(k), 2 * N ** k), uniform),
        additive_ok=within(additive, additive_bound),
        mult_ok=within(mult, mult_bound),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def write_reports_csv(path, reports) -> None:
    """One row per query under the versioned schema header."""
    buf = io.StringIO()
    buf.write(CSV_SCHEMA + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rep.csv_row() for rep in reports)
    write_text(path, buf.getvalue())


def exact_summary(reports) -> dict:
    """Max/median multiplicative errors and the largest tie mass of a corpus
    of ErrorReports, as Fractions (None if empty)."""
    if not reports:
        return {"queries": 0, "max_mult_err_uniform": None,
                "median_mult_err_uniform": None,
                "max_mult_err_fair": None, "max_tie_mass": None}
    uni = sorted(r.mult_err_uniform for r in reports)
    mid = len(uni) // 2
    return {
        "queries": len(reports),
        "max_mult_err_uniform": uni[-1],
        "median_mult_err_uniform": uni[mid] if len(uni) % 2 else (uni[mid - 1] + uni[mid]) / 2,
        "max_mult_err_fair": max(r.mult_err_fair for r in reports),
        "max_tie_mass": max(r.tie_mass for r in reports),
    }
