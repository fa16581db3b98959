"""Release acceptance: one test per criterion, one verdict line each.

Every test aggregates its sub-checks into a failure list, prints a
single ``criterion NN [PASS|FAIL]`` line outside pytest's capture (so
the verdict survives into piped logs), and then asserts.  Wall-clock
budgets are part of the acceptance contract and are asserted too; the
margins are wide enough that a loaded machine will not flake them.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from minwise_lab.cli import _corpus_queries
from minwise_lab.cli import main as cli_main
from minwise_lab.config import power_bound
from minwise_lab.construction import family_from_config
from minwise_lab.extractor import (
    FlatSource,
    LeftoverHash,
    compose_extract,
    leftover_bound,
    strong_extractor_distance,
)
from minwise_lab.gf2 import (
    BitMatrix,
    complement_basis,
    find_irreducible,
    mat_vec,
    mul_block,
    rank,
)
from minwise_lab.kwise import TWiseFamily
from minwise_lab.rectprg import TWisePRG
from minwise_lab.verify import (
    check_load_lemma,
    check_reduction,
    check_twise_tails,
    measure_minwise,
    uniform_minwise_probability,
)
from reference_extractor import ComposedExtractor
from reference_gf2 import kernel_basis, row_basis

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "minwise_desk.json"
GOLDEN = Path(__file__).resolve().parent / "data" / "minwise_desk_golden.csv"


def _verdict(capsys, num: int, label: str, budget_s: float, t0: float,
             failures: list) -> None:
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget_s
    with capsys.disabled():
        print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: "
              f"{elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert not failures, f"{len(failures)} violations, first: {failures[0]}"
    assert elapsed < budget_s, f"{elapsed:.1f}s over the {budget_s:.0f}s budget"


def test_criterion_01_field_axioms_and_kernel_accounting(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    for n in range(1, 9):
        ctx = find_irreducible(n)
        size = 1 << n
        e = np.arange(size, dtype=np.uint64)
        T = mul_block(ctx, e[:, None], e[None, :]).astype(np.uint16)
        if not np.array_equal(T[1], np.arange(size, dtype=np.uint16)):
            failures.append(f"n={n}: 1 is not the multiplicative identity")
        if not np.array_equal(T, T.T):
            failures.append(f"n={n}: multiplication is not commutative")
        # exhaustive associativity and distributivity over all triples
        if not np.array_equal(T[T], T[:, T]):
            failures.append(f"n={n}: (a*b)*c != a*(b*c) somewhere")
        xor = (e[:, None] ^ e[None, :]).astype(np.uint16)
        if not np.array_equal(T[:, xor], T[:, :, None] ^ T[:, None, :]):
            failures.append(f"n={n}: a*(b^c) != a*b ^ a*c somewhere")
        # every nonzero element has exactly one inverse
        inv_counts = np.count_nonzero(T[1:, 1:] == 1, axis=1)
        if not np.all(inv_counts == 1):
            failures.append(f"n={n}: inverse count off for some element")

    rng = np.random.Generator(np.random.Philox(key=101))
    for _ in range(1000):
        r = int(rng.integers(1, 13))
        c = int(rng.integers(1, 17))
        m = BitMatrix(tuple(int(v) for v in rng.integers(0, 1 << c, size=r)), c)
        # kernel_basis demands full row rank, so reduce to an independent
        # row set first; the kernel of the row space is the kernel of m
        ind = row_basis(m)
        if ind.nrows != rank(m):
            failures.append(f"row basis size != rank for {m.rows}")
        kb = kernel_basis(ind)
        if kb.nrows != c - rank(m):
            failures.append(f"kernel dim {kb.nrows} != {c} - rank for {m.rows}")
        if any(mat_vec(m, v) != 0 for v in kb.rows):
            failures.append(f"kernel vector not annihilated for {m.rows}")
        if kb.nrows and rank(kb) != kb.nrows:
            failures.append(f"kernel basis not independent for {m.rows}")

    _verdict(capsys, 1, "field axioms and kernel accounting", 10, t0, failures)


def test_criterion_02_twise_joint_marginals_exact(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    for t in (1, 2, 3):
        fam = TWiseFamily(t, 8, 8)
        seeds = np.arange(fam.seed_space, dtype=np.uint64)
        vals = np.stack([fam.eval_block(seeds, x).astype(np.int64) - 1
                         for x in range(1, 9)], axis=1)
        for size in range(1, t + 1):
            expected = fam.seed_space // 8 ** size
            for S in itertools.combinations(range(8), size):
                code = np.zeros(len(seeds), dtype=np.int64)
                for pos in S:
                    code = code * 8 + vals[:, pos]
                counts = np.bincount(code, minlength=8 ** size)
                if not np.all(counts == expected):
                    failures.append(f"t={t} positions {S}: joint not uniform")

    _verdict(capsys, 2, "t-wise joint marginals exactly uniform", 30, t0,
             failures)


def test_criterion_03_every_extractor_seed_is_surjective(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = np.random.Generator(np.random.Philox(key=303))

    for n in range(2, 13):
        full = LeftoverHash(n, n - 1)
        n_seeds = 1 << full.d
        basis = np.array([1 << j for j in range(n)], dtype=np.uint64)
        imgs = full.extract_block(
            basis[:, None], np.arange(1, n_seeds + 1, dtype=np.uint64)[None, :])
        for m in range(1, n):
            mask = (1 << m) - 1
            for s in range(n_seeds):
                # rank of the m x n seed matrix equals the rank of its
                # n basis images, stacked here as rows of an n x m matrix
                images = tuple(int(v) & mask for v in imgs[:, s])
                if rank(BitMatrix(images, m)) != m:
                    failures.append(f"n={n} m={m} seed={s}: rank below {m}")
            # spot-check the library's own matrix construction
            ext = LeftoverHash(n, m)
            for s in rng.integers(0, n_seeds, size=4):
                if rank(ext.matrix_of(int(s))) != m:
                    failures.append(f"n={n} m={m} seed={s}: matrix_of rank")

    _verdict(capsys, 3, "all leftover-hash seed matrices full rank", 20, t0,
             failures)


def test_criterion_04_leftover_bound_on_random_flat_sources(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = np.random.Generator(np.random.Philox(key=404))

    for n, m in ((6, 2), (8, 3), (10, 4), (12, 4)):
        ext = LeftoverHash(n, m)
        for level in range(m + 1, n):
            bound = power_bound(*leftover_bound(m, level))
            worst = 0.0
            for _ in range(200):
                support = tuple(
                    int(v) for v in
                    rng.choice(1 << n, size=1 << level, replace=False))
                dist = strong_extractor_distance(ext, FlatSource(n, support))
                worst = max(worst, dist)
            if worst > bound:
                failures.append(
                    f"n={n} m={m} entropy={level}: {worst} > {bound}")

    _verdict(capsys, 4, "strong-extractor distance within 2*2^((m-k)/2)",
             120, t0, failures)


def test_criterion_05_two_stage_composition_exactly_uniform(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []
    rng = np.random.Generator(np.random.Philox(key=505))

    for n in range(3, 11):
        splits = {(1, 1), (n // 2, max(1, (n - n // 2) // 2))}
        parity = np.array([bin(i).count("1") & 1 for i in range(1 << n)],
                          dtype=np.int64)
        ws = np.arange(1 << n, dtype=np.int64)
        for m1, m2 in sorted(splits):
            st1 = LeftoverHash(n, m1)
            st2 = LeftoverHash(n - m1, m2)
            packaged = ComposedExtractor([st1, st2])
            t1 = st1.extract_table().astype(np.int64)
            t2 = st2.extract_table().astype(np.int64)
            d2 = 1 << st2.d
            seed_offset = np.arange(d2, dtype=np.int64)[None, :] << (m1 + m2)
            expected = 1 << (n - m1 - m2)
            for s1 in range(1 << st1.d):
                dual = complement_basis(st1.matrix_of(s1))
                x2 = np.zeros(1 << n, dtype=np.int64)
                for j, row in enumerate(dual.rows):
                    x2 |= parity[ws & row] << j
                joint = t1[:, s1][:, None] | (t2[x2, :] << m1)
                counts = np.bincount((joint + seed_offset).ravel(),
                                     minlength=d2 << (m1 + m2))
                if not np.all(counts == expected):
                    failures.append(
                        f"n={n} split=({m1},{m2}) s1={s1}: joint not uniform")
                # tie the oracle back to the library evaluators
                s2 = int(rng.integers(d2))
                w = int(rng.integers(1 << n))
                direct = compose_extract([st1, st2], w, [s1, s2])
                if direct != int(joint[w, s2]):
                    failures.append(
                        f"n={n} split=({m1},{m2}): compose_extract mismatch")
                if packaged.extract(w, s1 | (s2 << st1.d)) != direct:
                    failures.append(
                        f"n={n} split=({m1},{m2}): packaged seed layout off")

    _verdict(capsys, 5, "two-stage composition uniform for every seed pair",
             60, t0, failures)


def test_criterion_06_tail_estimate_zero_violations(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    for t in (2, 3):
        for b in range(1, 5):
            for M in (8, 16):
                for rep in check_twise_tails(t, b, range(M + 1), M):
                    if not rep.within:
                        failures.append(
                            f"t={t} b={b} M={M} theta={rep.theta}: "
                            f"|{rep.exact_p} - {rep.reference}| > "
                            f"{rep.tolerance}")

    _verdict(capsys, 6, "t-wise minimum tail within truncation bound", 60,
             t0, failures)


def test_criterion_07_load_lemma_bounds_hold_or_tag_vacuous(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    # (label, family, X, Y, ell, regime, kwargs, expect_vacuous_chain)
    cases = [
        ("small ell=8", TWiseFamily(4, 5, 8), list(range(1, 6)), [5],
         8, "small", {"C_g": 4}, False),
        ("small ell=16", TWiseFamily(4, 5, 16), list(range(1, 6)), [5],
         16, "small", {"C_g": 4}, False),
        ("mid ell=8", TWiseFamily(3, 9, 8), list(range(1, 10)), [9],
         8, "mid", {}, True),
        ("mid ell=16", TWiseFamily(4, 14, 16), list(range(1, 15)), [14],
         16, "mid", {}, True),
        ("large ell=8", TWiseFamily(3, 17, 8), list(range(1, 18)), [17],
         8, "large", {}, True),
        ("large ell=16", TWiseFamily(2, 33, 16), list(range(1, 34)), [33],
         16, "large", {}, True),
        ("k=2 ell=8", TWiseFamily(4, 6, 8), list(range(1, 7)), [1, 2],
         8, "small", {"C_g": 2}, False),
        ("k=2 ell=16", TWiseFamily(4, 6, 16), list(range(1, 7)), [1, 2],
         16, "small", {"C_g": 2}, False),
    ]
    tags = []
    for label, fam, X, Y, ell, regime, kwargs, expect_vacuous in cases:
        rep = check_load_lemma(fam, X, Y, ell, regime, **kwargs)
        tags.append(f"{label}: chain={rep.chain.tag} "
                    f"closed={rep.closed_form.tag}")
        if not rep.asserted_ok():
            failures.append(f"{label}: frequency {rep.bad_frequency} "
                            f"exceeds chain bound {rep.chain.bound}")
        if expect_vacuous and not (rep.chain.vacuous and rep.chain.ok):
            failures.append(f"{label}: expected a tagged vacuous auto-pass")
        if not expect_vacuous and rep.chain.vacuous:
            failures.append(f"{label}: chain bound unexpectedly vacuous")
        if rep.closed_form.tag not in ("holds", "fails", "vacuous"):
            failures.append(f"{label}: closed form missing its tag")
        if rep.bj_chain is not None and not rep.bj_chain.ok:
            failures.append(f"{label}: query-bucket event exceeds its bound")

    # the small-regime cases are exact-equality anchors: frequency, chain
    # bound and closed form all equal 1/ell^3
    for label, ell in (("small ell=8", 8), ("small ell=16", 16)):
        rep = check_load_lemma(TWiseFamily(4, 5, ell), list(range(1, 6)), [5],
                               ell, "small", C_g=4)
        if not (rep.bad_frequency == rep.chain.bound == ell ** -3):
            failures.append(f"{label}: equality anchor broken")
        if rep.closed_form.tag != "holds":
            failures.append(f"{label}: closed form should hold with equality")

    with capsys.disabled():
        for line in tags:
            print(f"    {line}")
    _verdict(capsys, 7, "load bounds hold (vacuous cases tagged)", 120, t0,
             failures)


def test_criterion_08_rectangle_error_bounds_minwise_error(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    X = [1, 2, 3, 4]
    for t in (2, 4):
        prg = TWisePRG(t, 4, 8)
        for y in X:
            rep = check_reduction(prg, X, [y])
            if rep.rectangles_checked != 8:
                failures.append(f"t={t} y={y}: wrong rectangle count")
            if not (rep.additive_ok and rep.precondition_ok and rep.mult_ok):
                failures.append(
                    f"t={t} y={y}: mult error {rep.mult_error} vs bound "
                    f"{rep.mult_bound} (delta={rep.delta})")
        for Y in itertools.combinations(X, 2):
            rep = check_reduction(prg, X, list(Y))
            if rep.rectangles_checked != 16:
                failures.append(f"t={t} Y={Y}: wrong rectangle count")
            if not (rep.additive_ok and rep.precondition_ok and rep.mult_ok):
                failures.append(
                    f"t={t} Y={Y}: mult error {rep.mult_error} vs bound "
                    f"{rep.mult_bound} (delta={rep.delta})")

    _verdict(capsys, 8, "reduction inequalities exact, zero violations", 300,
             t0, failures)


def test_criterion_09_pinned_construction_beats_its_baseline(capsys,
                                                             tmp_path):
    t0 = time.perf_counter()
    failures: list[str] = []

    cfg = json.loads(DESK_CONFIG.read_text())
    family = family_from_config(cfg["construction"])
    if family.seed_bits > 24:
        failures.append(f"pinned config uses {family.seed_bits} seed bits")

    out = tmp_path / "run"
    rc = cli_main(["measure", "--config", str(DESK_CONFIG),
                   "--out-dir", str(out)])
    if rc != 0:
        failures.append(f"measure exited {rc}")
    else:
        if not GOLDEN.exists():
            failures.append(f"golden file missing at {GOLDEN}")
        elif (out / "measure.csv").read_bytes() != GOLDEN.read_bytes():
            failures.append("measure.csv does not byte-match the golden file")
        summary = json.loads((out / "summary.json").read_text())
        if summary["summary"]["queries"] != 20:
            failures.append("corpus is not the pinned 20 queries")
        constr_max = summary["summary"]["max_mult_err_uniform"]

        baseline = TWiseFamily(cfg["construction"]["t"],
                               cfg["construction"]["N"],
                               cfg["construction"]["M"])
        base_max = float(max(
            measure_minwise(baseline, X, Y).mult_err_uniform
            for X, Y in _corpus_queries(cfg, cfg["construction"]["N"], 1)))
        with capsys.disabled():
            print(f"    construction max mult err {constr_max:.4f}, "
                  f"pure {cfg['construction']['t']}-wise baseline "
                  f"{base_max:.4f}")
        if constr_max > base_max + 0.05:
            failures.append(
                f"construction err {constr_max} exceeds baseline "
                f"{base_max} + 0.05")

    _verdict(capsys, 9, "pinned config within baseline + 0.05, golden match",
             600, t0, failures)


def test_criterion_10_uniform_reference_matches_brute_force(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    for sx in range(1, 5):
        for M in (2, 4, 8, 16):
            digits = M ** np.arange(sx, dtype=np.int64)
            vals = (np.arange(M ** sx, dtype=np.int64)[:, None]
                    // digits[None, :]) % M + 1
            for k in (1, 2):
                if k > sx:
                    continue
                ymax = vals[:, :k].max(axis=1)
                if k < sx:
                    hit = ymax < vals[:, k:].min(axis=1)
                    count = int(hit.sum())
                else:
                    count = len(vals)  # empty complement: always the bottom
                brute = Fraction(count, M ** sx)
                closed = uniform_minwise_probability(sx, M, k)
                if abs(float(brute - closed)) > 1e-12:
                    failures.append(
                        f"|X|={sx} M={M} k={k}: {closed} != {brute}")

    _verdict(capsys, 10, "closed-form uniform reference vs brute force", 60,
             t0, failures)
