"""Reference counters for the load and order-statistic oracles.

These are the direct forms the library's counters are tested against:
a (seeds, ell) bucket-load matrix reduced row by row for the load
histogram, the ell-fold rational product behind the uniform
allocation's band frequency, the sum over all ell^k placements of Y for
its B_J frequency, and the full (M+1)^2 table of (max over Y,
min over X\\Y) pairs for the order-statistic margins and the reduction's
per-theta counts.  They keep every cell and case the library no longer
stores, so they are slower and larger, and they are meant to be
obviously right.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from minwise_lab.kwise import SeededFamily, scan
from minwise_lab.rectprg import PRGHashFamily, RectanglePRG
from minwise_lab.verify import binomial_tail_at_least


def scan_loads(g_family: SeededFamily, xs, ys, ell: int, bj_threshold: int | None):
    """verify._scan_loads's (hist, bj_bad), from a (block, ell) load matrix
    filled by one eval_block per point and reduced over its rows."""
    rest = [x for x in xs if x not in ys]
    side = len(rest) + 1

    def count(seeds):
        # each row gets exactly one bucket index per point, so a fancy
        # index add counts every point
        rows = np.arange(len(seeds))
        counts = np.zeros((len(seeds), ell), dtype=np.min_scalar_type(len(rest)))
        for x in rest:
            counts[rows, g_family.eval_block(seeds, x) - 1] += 1
        bj_bad = 0
        if bj_threshold is not None:
            in_j = np.zeros((len(seeds), ell), dtype=bool)
            for y in ys:
                in_j[rows, g_family.eval_block(seeds, y) - 1] = True
            bj_bad = np.count_nonzero((counts * in_j).sum(axis=1) >= bj_threshold)
        cells = counts.min(axis=1).astype(np.int64) * side + counts.max(axis=1)
        return np.append(np.bincount(cells, minlength=side * side), bj_bad)

    total = scan(g_family, count)[0]
    return total[:-1].reshape(side, side), int(total[-1])


def bounded_count_poly(r: int, lo: int, hi: int, ell: int) -> Fraction:
    """verify._bounded_count_poly's Pr[every bucket load in [lo, hi]] for
    r uniform balls in ell buckets: r! [x^r] (sum_{c=lo}^{hi} x^c / c!)^ell
    / ell^r, the base multiplied in ell times over rationals."""
    base = [Fraction(0)] * (r + 1)
    for c in range(lo, min(hi, r) + 1):
        base[c] = Fraction(1, math.factorial(c))
    poly = [Fraction(1)] + [Fraction(0)] * r
    for _ in range(ell):
        nxt = [Fraction(0)] * (r + 1)
        for i, a in enumerate(poly):
            if a == 0:
                continue
            for j, b in enumerate(base):
                if i + j > r:
                    break
                if b != 0:
                    nxt[i + j] += a * b
        poly = nxt
    return poly[r] * math.factorial(r) / Fraction(ell) ** r


def uniform_bj_frequency(r: int, k: int, ell: int, threshold: int) -> Fraction:
    """Pr[B_J >= threshold] under uniform allocation: the mean, over all
    ell^k placements of Y's k points, of the chance that at least
    ``threshold`` of the r points of X\\Y land in the buckets they fill."""
    return sum(binomial_tail_at_least(r, Fraction(len(set(alloc)), ell), threshold)
               for alloc in itertools.product(range(ell), repeat=k)) / ell ** k


def order_statistic_tails(prg: RectanglePRG, low, high) -> tuple[np.ndarray, int]:
    """(tails, seeds): tails[a, theta], theta = 0..M, counts the seeds whose
    output has maximum a over the coordinates ``low`` and minimum above
    theta over ``high``.  Suffix sums of one (max, min) histogram over
    the whole seed space, each block's values stacked and reduced here."""
    family, side = PRGHashFamily(prg), prg.alphabet + 1
    plan = family.bind([*low, *high])

    def count(seeds):
        evaluate = plan(seeds)
        a = np.stack([evaluate(i) for i in low]).max(axis=0).astype(np.int64)
        b = np.stack([evaluate(i) for i in high]).min(axis=0).astype(np.int64)
        return np.bincount(a * side + b, minlength=side * side)

    flat, total = scan(family, count)
    hist = flat.reshape(-1, side)
    tails = np.zeros_like(hist)
    tails[:, :-1] = hist[:, :0:-1].cumsum(axis=1)[:, ::-1]
    return tails, total


def reduction_counts_from_tails(tails: np.ndarray, k: int):
    """(choices, theta, seeds) for each rectangle behind the reduction bound.

    ``tails`` is order_statistic_tails over (Y, X\\Y).  Each rectangle asks
    every point of X\\Y for a value above theta and every y in Y for one
    of ``choices`` values: h(y) = theta when k = 1, and h(y) <= top for
    top in (theta, theta - 1) when k >= 2.
    """
    M = tails.shape[1] - 1
    if k == 1:
        for theta in range(1, M + 1):
            yield 1, theta, int(tails[theta, theta])
        return
    at_most = tails.cumsum(axis=0)
    for theta in range(1, M + 1):
        for top in (theta, theta - 1):
            yield top, theta, int(at_most[top, theta])


def reduction_counts(prg: RectanglePRG, ys, rest):
    """(per-rectangle counts, seeds with max h(Y) < min h(X\\Y), seeds):
    the reduction's counts from one order_statistic_tails table, whose
    diagonal tails[a, a] counts the seeds with max h(Y) = a < min h(X\\Y)."""
    tails, total = order_statistic_tails(prg, ys, rest)
    return (list(reduction_counts_from_tails(tails, len(ys))),
            int(tails.trace()), total)
