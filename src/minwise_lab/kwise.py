"""t-wise independent hash families [N] -> [M] and their direct sum.

A family member is a degree-(t-1) polynomial over GF(2^n) with 2^n >=
max(N, M); the seed packs the t coefficients.  Points enter the field
through the fixed injection chi(x) = x - 1 and outputs leave it by
truncation to the low log2(M) bits, shifted into [M] = {1, ..., M}.
Horner evaluation order is fixed so outputs are bit-exact everywhere.
"""

from __future__ import annotations

import abc

import numpy as np

from .errors import BadSeedLength, DomainOverflow, RangeMismatch, SeedSpaceTooLarge
from .gf2 import FieldContext, find_irreducible, mul_block

EXHAUSTIVE_SEED_BITS = 24


def dsum_values(u, v, range_size: int):
    """Direct-sum combination of two values in [M]: ((u+v-1) mod M) + 1.

    Works on ints and on numpy arrays alike; for fixed v it is a cyclic
    bijection of [M], which is what preserves marginal uniformity.
    """
    return (u + v - 1) % range_size + 1


# what a forked scan worker applies to a block index; set by _start_worker
# in each worker process and never in the process that owns the pool
_worker_count = None


def _start_worker(count_block) -> None:
    global _worker_count
    _worker_count = count_block


def _count_in_worker(i: int):
    return _worker_count(i)


def scan_seeds(seed_bits: int, count, chunk_bits: int = 20, threads: int = 1):
    """Sum of ``count(seeds)`` over the uint64 seed blocks of [0, 2^seed_bits).

    This is the one exhaustive enumeration behind every exact oracle.
    Blocks are consecutive and hold <= 2^chunk_bits seeds; ``count``
    returns an int or a fixed-shape int64 array.  The budget is checked
    before any block is built, so an oversized space raises
    SeedSpaceTooLarge before any work is done.

    With ``threads`` > 1 and more than one block, block indices go to
    min(threads, blocks) forked workers, each building its own blocks.
    Fork hands them ``count`` unpickled, so closures work.  Integer sums
    do not depend on the order blocks finish in, so the result is the
    same at any ``threads``.
    """
    if seed_bits > EXHAUSTIVE_SEED_BITS:
        raise SeedSpaceTooLarge(
            f"{seed_bits} seed bits exceed the {EXHAUSTIVE_SEED_BITS}-bit "
            "exhaustive budget"
        )
    step, total = 1 << chunk_bits, 1 << seed_bits

    def count_block(i: int):
        return count(np.arange(i * step, min((i + 1) * step, total), dtype=np.uint64))

    blocks = -(-total // step)
    workers = min(threads, blocks)
    if workers <= 1:
        return sum(map(count_block, range(blocks)))
    # imported here so that sequential runs do not pay for the pool at start-up
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, _start_worker, (count_block,)) as pool:
        return sum(pool.imap_unordered(_count_in_worker, range(blocks)))


class SeededFamily(abc.ABC):
    """A finite hash family {h_seed : [1..N] -> [1..M]} indexed by seeds.

    Seeds are integers in [0, 2^seed_bits); evaluation is pure.  Block
    evaluation takes a uint64 seed array (or a family-specific unpacked
    form produced by draw_seed_block) and returns a uint64 value array.
    """

    domain_size: int
    range_size: int
    seed_bits: int

    @property
    def seed_space(self) -> int:
        return 1 << self.seed_bits

    @property
    @abc.abstractmethod
    def family_id(self) -> str:
        """Stable, human-readable identifier used in reports."""

    @abc.abstractmethod
    def eval(self, seed: int, x: int) -> int:
        """h_seed(x), with seed and x validated."""

    def eval_block(self, seeds: np.ndarray, x: int) -> np.ndarray:
        """Vectorized eval over a seed block; default is the scalar loop."""
        self._check_x(x)
        return np.array([self.eval(int(s), x) for s in seeds], dtype=np.uint64)

    def draw_seed_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample seeds for Monte-Carlo oracles; packed uint64 by default."""
        if self.seed_bits > 63:
            raise BadSeedLength(
                f"{self.seed_bits}-bit seeds do not fit the packed uint64 "
                "sampling path and this family provides no unpacked form"
            )
        return rng.integers(0, 1 << self.seed_bits, size=count, dtype=np.uint64)

    def _check_seed(self, seed: int) -> None:
        if seed < 0 or seed >> self.seed_bits:
            raise BadSeedLength(
                f"seed {seed:#x} outside [0, 2^{self.seed_bits})"
            )

    def _check_x(self, x: int) -> None:
        if not 1 <= x <= self.domain_size:
            raise DomainOverflow(f"point {x} outside [1, {self.domain_size}]")


class TWiseFamily(SeededFamily):
    """Degree-(t-1) polynomial family over GF(2^n), exactly t-wise uniform.

    Parameters
    ----------
    t : int
        Independence degree (t = 1 gives the constant family).
    domain_size, range_size : int
        N and M; M must be a power of two with max(N, M) <= 2^n.
    ctx : FieldContext, optional
        Field to evaluate in; defaults to the smallest field that fits.
    """

    def __init__(
        self,
        t: int,
        domain_size: int,
        range_size: int,
        ctx: FieldContext | None = None,
    ) -> None:
        if t < 1:
            raise ValueError("independence degree t must be >= 1")
        if domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        if range_size < 2 or range_size & (range_size - 1):
            raise ValueError("range_size must be a power of two >= 2")
        need = max(domain_size, range_size)
        if ctx is None:
            ctx = find_irreducible(max(1, (need - 1).bit_length()))
        if ctx.size < need:
            raise ValueError(
                f"field of size {ctx.size} too small for max(N, M) = {need}"
            )
        self.t = t
        self.ctx = ctx
        self.domain_size = domain_size
        self.range_size = range_size
        self.seed_bits = t * ctx.degree

    @property
    def family_id(self) -> str:
        return (
            f"twise(t={self.t},n={self.ctx.degree},mod={self.ctx.modulus:#x},"
            f"N={self.domain_size},M={self.range_size})"
        )

    def coefficients(self, seed: int) -> list[int]:
        """The t coefficients packed in the seed, a_0 in the low bits."""
        n = self.ctx.degree
        return [(seed >> (i * n)) & (self.ctx.size - 1) for i in range(self.t)]

    def eval_field(self, seed: int, chi: int) -> int:
        """Raw field value of the polynomial at field point chi."""
        coeffs = self.coefficients(seed)
        acc = coeffs[-1]
        for a in reversed(coeffs[:-1]):
            acc = self.ctx.mul(acc, chi) ^ a
        return acc

    def eval(self, seed: int, x: int) -> int:
        self._check_seed(seed)
        self._check_x(x)
        v = self.eval_field(seed, x - 1)
        return (v & (self.range_size - 1)) + 1

    def _horner_block(self, seeds: np.ndarray, chi) -> np.ndarray:
        """Vectorized Horner; chi is a scalar or an array of field points.

        ``seeds`` is either a 1-D packed uint64 array or a 2-D
        (count, t) coefficient array from draw_seed_block.
        """
        n = self.ctx.degree
        mask = np.uint64(self.ctx.size - 1)
        if seeds.ndim == 2:
            coeff = lambda i: seeds[:, i]
        else:
            seeds = seeds.astype(np.uint64, copy=False)
            coeff = lambda i: (seeds >> np.uint64(i * n)) & mask
        acc = coeff(self.t - 1)
        for i in range(self.t - 2, -1, -1):
            acc = mul_block(self.ctx, acc, chi) ^ coeff(i)
        return acc

    def eval_block(self, seeds: np.ndarray, x: int) -> np.ndarray:
        self._check_x(x)
        acc = self._horner_block(seeds, x - 1)
        return (acc & np.uint64(self.range_size - 1)) + np.uint64(1)

    def draw_seed_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.seed_bits <= 63:
            return super().draw_seed_block(rng, count)
        # wide seeds: sample the coefficients unpacked, one column each
        return rng.integers(0, self.ctx.size, size=(count, self.t), dtype=np.uint64)


class DirectSumFamily(SeededFamily):
    """Pointwise direct sum of two families on the same domain and range.

    The combined seed is the concatenation with the first family's seed
    in the low bits.  For any fixed second seed the map is a cyclic
    bijection of each output, so exact t-wise marginal uniformity of
    either component survives in the sum.
    """

    def __init__(self, f: SeededFamily, g: SeededFamily) -> None:
        if f.range_size != g.range_size:
            raise RangeMismatch(
                f"range sizes differ: {f.range_size} vs {g.range_size}"
            )
        if f.domain_size != g.domain_size:
            raise RangeMismatch(
                f"domain sizes differ: {f.domain_size} vs {g.domain_size}"
            )
        self.f = f
        self.g = g
        self.domain_size = f.domain_size
        self.range_size = f.range_size
        self.seed_bits = f.seed_bits + g.seed_bits

    @property
    def family_id(self) -> str:
        return f"dsum({self.f.family_id},{self.g.family_id})"

    def split_seed(self, seed: int) -> tuple[int, int]:
        return seed & (self.f.seed_space - 1), seed >> self.f.seed_bits

    def eval(self, seed: int, x: int) -> int:
        self._check_seed(seed)
        sf, sg = self.split_seed(seed)
        return dsum_values(self.f.eval(sf, x), self.g.eval(sg, x), self.range_size)

    def eval_block(self, seeds: np.ndarray, x: int) -> np.ndarray:
        seeds = seeds.astype(np.uint64, copy=False)
        sf = seeds & np.uint64(self.f.seed_space - 1)
        sg = seeds >> np.uint64(self.f.seed_bits)
        vf = self.f.eval_block(sf, x)
        vg = self.g.eval_block(sg, x)
        return dsum_values(vf, vg, np.uint64(self.range_size))


def direct_sum(f: SeededFamily, g: SeededFamily) -> DirectSumFamily:
    """Combine two families by ((f(x) + g(x) - 1) mod M) + 1."""
    return DirectSumFamily(f, g)
