"""t-wise independent hash families [N] -> [M] and their direct sum.

A family member is a degree-(t-1) polynomial over GF(2^n) with 2^n >=
max(N, M); the seed packs the t coefficients.  Points enter the field
through the fixed injection chi(x) = x - 1 and outputs leave it by
truncation to the low log2(M) bits, shifted into [M] = {1, ..., M}.
Horner evaluation order is fixed so outputs are bit-exact everywhere.
"""

from __future__ import annotations

import abc
import os
import pickle
from typing import NoReturn

import numpy as np

from .errors import (
    BadSeedLength,
    DomainOverflow,
    InvalidArgument,
    RangeMismatch,
    ScanWorkerFailed,
    SeedSpaceTooLarge,
)
from .gf2 import FieldContext, find_irreducible, mul_block

EXHAUSTIVE_SEED_BITS = 24

# log2 of the seeds in one scan block, read by every scan when it starts.
# Chosen by measurement: a block's uint64 temporaries (512 KiB each) stay
# in cache, and under the CLI's allocator policy they reuse freed memory
# instead of faulting in fresh pages.
SCAN_CHUNK_BITS = 16

# log2 of the rows in one Monte-Carlo draw chunk.  Chunk j of a sample
# is the family's draw_seed_block on Philox keyed by the run seed and
# jumped j times, so this constant defines the sample itself: it is not
# a tuning knob, and it is independent of SCAN_CHUNK_BITS.
MC_DRAW_BITS = 16


def dsum_values(u, v, range_size: int):
    """Direct-sum combination of two values in [M]: ((u+v-1) mod M) + 1.

    Works on ints and on numpy arrays alike; for fixed v it is a cyclic
    bijection of [M], which is what preserves marginal uniformity.
    """
    s = u + v
    if not isinstance(s, np.ndarray) or s.dtype.kind != "u":
        return (s - 1) % range_size + 1
    # s - 1 lies in [1, 2M - 1]: from M on, subtracting M wraps it into
    # [0, M - 1]; below M the unsigned difference wraps past 2^63 and the
    # minimum keeps s - 1.  A compare and a subtract, not a division.
    s -= 1
    np.minimum(s, s - range_size, out=s)
    s += 1
    return s


def scan_blocks(blocks: int, block_of, count, threads: int = 1):
    """Sum of ``count(block_of(i))`` over the block indices i < ``blocks``.

    This is the one block loop behind every oracle; ``count`` returns an
    int or a fixed-shape int64 array.  With ``threads`` > 1 and more
    than one block, min(threads, blocks) workers are forked once each.
    Worker w counts the w-th of that many contiguous ranges of block
    indices, so a Monte-Carlo draw chunk split into several blocks stays
    in one process, and sends its one sum back through its own pipe.
    Fork hands the workers ``block_of`` and ``count`` unpickled, so
    closures work and arrays they read are shared, not copied.  The
    parent counts nothing: it only reads the pipes, reaps the workers
    and adds their sums.  A worker's exception is raised again in the
    parent, a worker that ends without a sum raises ScanWorkerFailed,
    and on any failure the workers still running are killed.  Integer
    sums do not depend on the split, so the result is the same at any
    ``threads``.
    """
    def count_block(i: int):
        return count(block_of(i))

    workers = min(threads, blocks)
    if workers <= 1:
        return sum(map(count_block, range(blocks)))
    return _forked_sum(count_block, blocks, workers)


def _forked_sum(count_block, blocks: int, workers: int):
    """The sum of ``count_block`` over the blocks, counted by ``workers``
    forked processes on contiguous ranges.  Every worker is reaped on
    every path."""
    # imported here so that start-up and sequential scans do not pay for them
    import select
    import signal

    parent = os.getpid()
    children = {}  # read end of a worker's pipe -> its pid, 0 once reaped
    sums = {}
    try:
        for w in range(workers):
            read, write = os.pipe()
            children[read] = 0
            try:
                if (pid := os.fork()) == 0:
                    # only the parent holds read ends, so a worker whose
                    # parent has gone gets EPIPE, not a pipe that never drains
                    for fd in children:
                        os.close(fd)
                    _work(write, parent, count_block,
                          range(blocks * w // workers, blocks * (w + 1) // workers))
            finally:
                os.close(write)
            children[read] = pid
        # every pipe is drained as it fills and each worker is reaped only
        # at its end of file, so a large sum can never block its sender
        pending = dict.fromkeys(children, b"")
        while pending:
            for fd in select.select(list(pending), [], [])[0]:
                if chunk := os.read(fd, 1 << 16):
                    pending[fd] += chunk
                    continue
                pid = children[fd]
                status = os.waitpid(pid, 0)[1]
                children[fd] = 0
                sums[fd] = _reply(pending.pop(fd), pid, status)
    except BaseException:
        for pid in children.values():
            if pid:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd, pid in children.items():
            os.close(fd)
            if pid:
                os.waitpid(pid, 0)
    return sum(sums.values())


def _work(write: int, parent: int, count_block, indices: range) -> NoReturn:
    """A forked worker: count the blocks of ``indices``, send the pickled
    sum (or the exception that stopped it) and exit without returning.
    It also exits at its next block once ``parent`` is gone."""
    code = 1
    try:
        try:
            total = 0
            for i in indices:
                if os.getppid() != parent:
                    os._exit(1)
                total = total + count_block(i)
            reply = ("sum", total)
        except BaseException as exc:
            reply = ("raised", _portable(exc))
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a ScanWorkerFailed with its
    type and message."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return ScanWorkerFailed(f"{type(exc).__name__}: {exc}")


def _reply(data: bytes, pid: int, status: int):
    """A worker's sum, or the exception it sent, raised here."""
    try:
        kind, value = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        raise ScanWorkerFailed(
            f"scan worker {pid} ended without a result (exit code "
            f"{os.waitstatus_to_exitcode(status)})") from None
    if kind == "raised":
        raise value
    return value


def scan_seeds(seed_bits: int, count, threads: int = 1):
    """Sum of ``count(seeds)`` over the uint64 seed blocks of [0, 2^seed_bits).

    This is the one exhaustive enumeration behind every exact oracle.
    Blocks are consecutive, hold <= 2^SCAN_CHUNK_BITS seeds and are
    summed by scan_blocks on ``threads`` workers.  The budget is checked
    before any block is built, so an oversized space raises
    SeedSpaceTooLarge before any work is done.
    """
    if seed_bits > EXHAUSTIVE_SEED_BITS:
        raise SeedSpaceTooLarge(
            f"{seed_bits} seed bits exceed the {EXHAUSTIVE_SEED_BITS}-bit "
            "exhaustive budget"
        )
    step, total = 1 << SCAN_CHUNK_BITS, 1 << seed_bits

    def block_of(i: int):
        return np.arange(i * step, min((i + 1) * step, total), dtype=np.uint64)

    return scan_blocks(-(-total // step), block_of, count, threads)


def check_mode(mode: str) -> None:
    """Refuse any mode but "exhaustive" and "mc" (Monte-Carlo)."""
    if mode not in ("exhaustive", "mc"):
        raise InvalidArgument(f"unknown mode {mode!r}")


def scan(family: SeededFamily, count, mode: str = "exhaustive",
         samples: int | None = None, run_seed: int = 0, threads: int = 1):
    """(sum of ``count`` over the family's seed blocks, seeds counted).

    The one seed source of every oracle.  Exhaustive mode enumerates
    [0, 2^seed_bits) through scan_seeds, under its 24-bit budget.
    Monte-Carlo mode ("mc") counts ``samples`` seeds drawn in chunks of
    <= 2^MC_DRAW_BITS rows: chunk j is the family's draw_seed_block on
    Philox keyed by ``run_seed`` and jumped j times, so a run of at most
    2^16 samples is one draw off the unjumped stream.  Each block of
    <= 2^SCAN_CHUNK_BITS rows draws the chunks it covers where it is
    counted, so no process holds the whole sample.  Either way the
    blocks go through scan_blocks on ``threads`` workers, so the sum is
    the same at any block size and ``threads``.
    """
    check_mode(mode)
    if mode == "exhaustive":
        return scan_seeds(family.seed_bits, count, threads), family.seed_space
    if not samples or samples < 1:
        raise InvalidArgument("monte-carlo mode needs a positive sample count")
    step, width = 1 << SCAN_CHUNK_BITS, 1 << MC_DRAW_BITS
    # blocks smaller than a chunk share it: each process keeps its last one
    memo = {}

    def chunk(j: int):
        if j not in memo:
            rng = np.random.Generator(np.random.Philox(key=run_seed).jumped(j))
            seeds = family.draw_seed_block(rng, min(width, samples - j * width))
            if step >= width:
                return seeds
            memo.clear()
            memo[j] = seeds
        return memo[j]

    def block_of(i: int):
        lo, hi = i * step, min((i + 1) * step, samples)
        parts = [chunk(j)[max(lo - j * width, 0):hi - j * width]
                 for j in range(lo // width, -(-hi // width))]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return scan_blocks(-(-samples // step), block_of, count, threads), samples


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
        """Vectorized eval over a seed block: ``block_evaluator(seeds)(x)``."""
        return self.block_evaluator(seeds)(x)

    def block_evaluator(self, seeds: np.ndarray):
        """x -> the values of the block's members at x, with the work that
        depends only on the seed block done once, when it is bound.

        The default is the scalar loop over ``eval``.  Work that depends
        only on the point may also be kept across blocks: the bucketed
        families of ``construction`` build per-point tables on a point's
        first aligned scan block, within a byte budget per family, and
        evaluate every other block, and every point past that budget,
        through their layers, with the same values.
        """
        def evaluate(x: int) -> np.ndarray:
            self._check_x(x)
            return np.array([self.eval(int(s), x) for s in seeds], dtype=np.uint64)

        return evaluate

    def draw_seed_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample seeds for Monte-Carlo oracles; packed uint64 by default."""
        if self.seed_bits > 64:
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
            raise InvalidArgument("independence degree t must be >= 1")
        if domain_size < 1:
            raise InvalidArgument("domain_size must be >= 1")
        if range_size < 2 or range_size & (range_size - 1):
            raise InvalidArgument("range_size must be a power of two >= 2")
        need = max(domain_size, range_size)
        if ctx is None:
            ctx = find_irreducible(max(1, (need - 1).bit_length()))
        if ctx.size < need:
            raise InvalidArgument(
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

    def block_evaluator(self, seeds: np.ndarray):
        """x -> values of the block's members at x, by Horner.

        ``seeds`` is either a 1-D packed uint64 array or a 2-D (count, t)
        coefficient array from draw_seed_block; the coefficient columns
        are unpacked once, here.  x is a checked point or, for TWisePRG,
        an unchecked uint64 array of points, one per seed.
        """
        if seeds.ndim == 2:
            coeffs = [seeds[:, i] for i in range(self.t)]
        else:
            seeds = seeds.astype(np.uint64, copy=False)
            n, mask = self.ctx.degree, self.ctx.size - 1
            # all but the top coefficient are only XORed in, so they are
            # held in the narrowest dtype.  As uint64 columns they lifted
            # loads-test's per-block peak past the CLI's malloc trim
            # threshold: 51k minor faults instead of 13k.
            narrow = np.min_scalar_type(mask)
            coeffs = [(seeds >> np.uint64(i * n)).astype(narrow) & narrow.type(mask)
                      for i in range(self.t - 1)]
            coeffs.append((seeds >> np.uint64((self.t - 1) * n)) & np.uint64(mask))
        top, rest = coeffs[-1], coeffs[-2::-1]
        out_mask = np.uint64(self.range_size - 1)

        def evaluate(x) -> np.ndarray:
            if isinstance(x, (int, np.integer)):
                self._check_x(x)
                chi = int(x) - 1
            else:
                chi = x.astype(np.uint64, copy=False) - np.uint64(1)
            # the products are fresh arrays, so the XOR can be in place
            # without touching the coefficient columns
            acc = top
            for a in rest:
                acc = mul_block(self.ctx, acc, chi)
                acc ^= a
            vals = acc & out_mask
            vals += np.uint64(1)
            return vals

        return evaluate

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

    def block_evaluator(self, seeds: np.ndarray):
        seeds = seeds.astype(np.uint64, copy=False)
        f = self.f.block_evaluator(seeds & np.uint64(self.f.seed_space - 1))
        g = self.g.block_evaluator(seeds >> np.uint64(self.f.seed_bits))
        return lambda x: dsum_values(f(x), g(x), self.range_size)


def direct_sum(f: SeededFamily, g: SeededFamily) -> DirectSumFamily:
    """Combine two families by ((f(x) + g(x) - 1) mod M) + 1."""
    return DirectSumFamily(f, g)
