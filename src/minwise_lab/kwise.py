"""t-wise independent hash families [N] -> [M] and their direct sum.

A family member is a degree-(t-1) polynomial over GF(2^n) with 2^n >=
max(N, M); the seed packs the t coefficients.  Points enter the field
through the fixed injection chi(x) = x - 1 and outputs leave it by
truncation to the low log2(M) bits, shifted into [M] = {1, ..., M}.
Field arithmetic is exact, so Horner's rule and the per-point tables of
block evaluation give the same bits everywhere.
"""

from __future__ import annotations

import abc
import functools
import os
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NoReturn

import numpy as np

from .errors import EXHAUSTIVE_SEED_BITS, InvalidArgument, ScanWorkerFailed, SeedSpaceTooLarge
from .gf2 import find_irreducible, mul_block, row_spans

if TYPE_CHECKING:
    from .philox import Philox

# log2 of the seeds in one exhaustive scan block, read by every scan
# when it starts.  Chosen by measurement: a block's uint64 temporaries
# (512 KiB each) stay in cache, and under the CLI's allocator policy they
# reuse freed memory instead of faulting in fresh pages.
SCAN_CHUNK_BITS = 16

# log2 of the rows in one Monte-Carlo draw chunk.  Chunk j of a sample
# is the family's layout.draw_block on Philox keyed by the run seed and
# jumped j times, so this constant defines the sample itself: it is not
# a tuning knob.
MC_DRAW_BITS = 16

# log2 of the rows of one Monte-Carlo count slice, at most MC_DRAW_BITS
# and read by every scan when it starts.  Each slice of a draw chunk is
# one scan block, drawn where it is counted, and the slices' integer
# counts add up to the chunk's, so it moves no result.  Chosen by
# measurement on the 84-bit benchmark family (8 queries of 6 points, 2
# vCPUs), with the chunk drawn whole: one warm chunk count took a median
# 26, 23, 24, 27 and 36 ms at 16, 15, 14, 13 and 12 bits, and the traced
# peak of a one-chunk measure was 8.79, 5.60 and 4.16 MiB at 16, 15 and
# 14 bits and 4.16 MiB below, 3.63 MiB of it the whole chunk's draw.
# Drawn a slice at a time, it peaks at 2.43 MiB at 14 bits.
MC_COUNT_BITS = 14

# log2 of the entries of one point table of a t-wise family: at a fixed
# point, a run of coefficient words whose bits fit this width is one
# table, sliced on an aligned exhaustive block (the values are the outer
# XOR of the runs' slices) and read by one gather on any other block.
# Tables of 2^12 entries take 4 KiB as uint8.  On the 84-bit
# benchmark family's 10-wise overlay over GF(2^4), 16 points of a 2^16-row
# block took a median 11.6, 9.4 and 7.0 ms at 10, 12 and 16 bits (runs
# of 2, 3 and 4 words; 14 bits is 12's 3 words), and building the
# 16 points' tables 1.3, 1.8 and 2.7 ms; 16 bits would hold about 3 MB
# more tables on that family, so 12 it is.
POINT_TABLE_BITS = 12

# Bytes of per-point tables one plan may hold, summed over its points: a
# t-wise family's point tables, or a bucketed family's T_x and Y_x
# (``construction``).  Tables are built once per bind, in the process that
# binds, in the order of the points; a point whose tables would pass the
# budget is evaluated without them, with the same values.
POINT_TABLE_BYTES = 16 << 20


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
    indices and sends its one sum back through its own pipe.
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


def scan(family: SeededFamily, count, *, samples: int | None = None,
         run_seed: int | None = None, threads: int = 1):
    """(sum of ``count`` over the family's seed blocks, seeds counted).

    The one seed source of every oracle.  Without ``samples`` it is exact:
    it enumerates [0, 2^seed_bits) in ``range`` blocks of <= 2^SCAN_CHUNK_BITS
    consecutive seeds, turned into arrays only by seed_words, and refuses
    a ``run_seed``, which keys only a draw.  A space past the
    EXHAUSTIVE_SEED_BITS budget raises SeedSpaceTooLarge before any block
    is built.  With ``samples`` >= 1 it is Monte-Carlo, in blocks of
    <= 2^MC_COUNT_BITS rows of a sample drawn in chunks of <=
    2^MC_DRAW_BITS rows: chunk j is the family's layout.draw_block of
    that many rows on philox.Philox keyed by ``run_seed`` (0 when None)
    and jumped j times, so a run of at most 2^16 samples is one draw off
    the unjumped stream.  Each block is one consecutive row slice of a
    chunk, drawn on its own where it is counted, so no process holds a
    whole chunk.  A key outside [0, 2^128) raises InvalidArgument
    before any block is drawn, in this process at any ``threads``.
    Either way ``count`` sees seed blocks, which go through scan_blocks
    on ``threads`` workers, so the sum is the same at any ``threads``.
    """
    if samples is None:
        if run_seed is not None:
            raise InvalidArgument("a run seed keys a Monte-Carlo draw: it needs samples")
        if family.seed_bits > EXHAUSTIVE_SEED_BITS:
            raise SeedSpaceTooLarge(
                f"{family.seed_bits} seed bits exceed the {EXHAUSTIVE_SEED_BITS}-bit "
                "exhaustive budget"
            )
        seen, width = family.seed_space, 1 << SCAN_CHUNK_BITS

        def block_of(i: int):
            return range(i * width, min((i + 1) * width, seen))
    else:
        if samples < 1:
            raise InvalidArgument("monte-carlo mode needs a positive sample count")
        from .philox import Philox

        stream, seen, chunk = Philox(run_seed or 0), samples, 1 << MC_DRAW_BITS
        width, draw = 1 << MC_COUNT_BITS, family.layout.draw_block
        per = chunk // width  # count slices in a whole chunk

        def block_of(i: int):
            j = i // per
            n, lo = min(chunk, samples - j * chunk), i % per * width
            return draw(stream.jumped(j), n, lo, min(lo + width, n))

    return scan_blocks(-(-seen // width), block_of, count, threads), seen


def seed_words(seeds: np.ndarray | range, widths, out: np.ndarray | None = None) -> np.ndarray:
    """(count, words) columns of a seed block's words of the given
    widths, low bits first: the one converter between the block forms.
    A 2-D block is its word columns already; a ``range`` of seeds (an
    exhaustive scan block) becomes their packed uint64 array, and a
    packed block is cut by shift and mask into a column-major block of
    the narrowest unsigned dtype that holds the widest word, or into the
    columns ``out`` when given."""
    if isinstance(seeds, range):
        seeds = np.arange(seeds.start, seeds.stop, seeds.step, dtype=np.uint64)
    if seeds.ndim == 2:
        if seeds.shape[1] != len(widths):
            raise InvalidArgument(f"{seeds.shape[1]} word columns, expected {len(widths)}")
        return seeds
    seeds = seeds.astype(np.uint64, copy=False)
    dtype = np.min_scalar_type((1 << max(widths, default=1)) - 1)
    words = np.empty((len(seeds), len(widths)), dtype=dtype, order="F") if out is None else out
    offset = 0
    for i, width in enumerate(widths):
        words[:, i] = (seeds >> np.uint64(offset)) & np.uint64((1 << width) - 1)
        offset += width
    return words


def seed_runs(seeds: np.ndarray | range, offset: int) -> tuple[range, int] | None:
    """(values, repeat) of the seeds' bits from ``offset`` up, when
    ``seeds`` is a step-1 ``range`` whose start and length are multiples
    of 2^offset, or one that lies wholly inside a single run of 2^offset
    seeds: a ``range`` of values, each held by ``repeat`` consecutive
    seeds (2^offset, or len(seeds) for the one value of a single run).
    None for any other block (an array, an unaligned or stepped range),
    whose caller reads its word columns instead."""
    if not isinstance(seeds, range) or seeds.step != 1 or not seeds:
        return None
    top = seeds.start >> offset
    if not seeds.start % (1 << offset) and not len(seeds) % (1 << offset):
        return range(top, seeds.stop >> offset), 1 << offset
    if top == (seeds.stop - 1) >> offset:
        return range(top, top + 1), len(seeds)
    return None


@dataclass(frozen=True)
class SeedField:
    name: str
    offset: int
    width: int
    words: tuple[int, ...]


@dataclass(frozen=True)
class SeedLayout:
    """Ordered bit-fields of a seed, low offsets first, each a run of the
    words of the family that reads it."""

    fields: tuple[SeedField, ...]

    @classmethod
    def build(cls, fields) -> "SeedLayout":
        """Layout of (name, word widths) pairs, low bits first."""
        off = 0
        out = []
        for name, words in fields:
            out.append(SeedField(name, off, sum(words), tuple(words)))
            off += sum(words)
        return cls(tuple(out))

    @property
    def total_bits(self) -> int:
        return sum(f.width for f in self.fields)

    @property
    def words(self) -> tuple[int, ...]:
        """Every field's word widths, in layout order."""
        return tuple(w for f in self.fields for w in f.words)

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> SeedField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def unpack(self, seed: int) -> dict:
        return {f.name: (seed >> f.offset) & ((1 << f.width) - 1) for f in self.fields}

    def unpack_block(self, seeds: np.ndarray) -> dict:
        """Each field's word columns of a packed or a 2-D block, as views."""
        cuts = np.cumsum([len(f.words) for f in self.fields])[:-1]
        return dict(zip(self.names(), np.split(seed_words(seeds, self.words), cuts, axis=1)))

    def draw_block(self, stream: Philox, count: int, lo: int = 0,
                   hi: int | None = None) -> np.ndarray:
        """Rows [lo, hi) (all when ``hi`` is None) of ``count`` uniform
        seeds drawn from ``stream``, which moves past the whole draw:
        packed uint64 up to 64 bits, else word columns as seed_words makes
        them.  In layout order, a field of at most 63 bits is one
        Philox.integers draw, cut into its words, and each word of a wider
        field is drawn on its own, as numpy draws ``integers`` in turn;
        each draw computes only the blocks of its rows [lo, hi)."""
        if self.total_bits <= 64:
            return stream.integers(count, self.total_bits, lo, hi)
        runs = [run for f in self.fields if f.words
                for run in ([f.words] if f.width <= 63 else [(w,) for w in f.words])]
        hi = count if hi is None else hi
        out = np.empty((max(hi - lo, 0), len(self.words)), order="F",
                       dtype=np.min_scalar_type((1 << max(self.words)) - 1))
        col = 0
        for run in runs:
            seed_words(stream.integers(count, sum(run), lo, hi), run, out[:, col:col + len(run)])
            col += len(run)
        return out


class SeededFamily(abc.ABC):
    """A finite hash family {h_seed : [1..N] -> [1..M]} indexed by seeds.

    Seeds are integers in [0, 2^seed_bits) made of the coefficient words
    of seed_columns(); evaluation is pure.  Block evaluation reads a
    ``range`` of seeds, a packed uint64 block or a 2-D (count, words)
    block of word columns, through seed_words where it needs the words,
    and returns a fresh array of values.
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

    def seed_columns(self) -> tuple[int, ...]:
        """Widths of the seed's words, low bits first, summing to seed_bits;
        by default words of at most 32 bits."""
        return tuple(min(32, self.seed_bits - low) for low in range(0, self.seed_bits, 32))

    @functools.cached_property
    def layout(self) -> SeedLayout:
        """The seed's fields: by default one, "seed", of all its words."""
        return SeedLayout.build([("seed", self.seed_columns())])

    def eval_block(self, seeds: np.ndarray, x: int) -> np.ndarray:
        """Vectorized eval over a seed block: ``bind((x,))(seeds)(x)``."""
        return self.bind((x,))(seeds)(x)

    def bind(self, points) -> Callable:
        """The evaluation plan of ``points``, made once before a scan: the
        binder seeds -> (x -> values) of each block.

        Every point is checked before any table is built.  Work that
        depends only on a point is done here, within POINT_TABLE_BYTES
        (TWiseFamily's point tables, the T_x and Y_x of ``construction``'s
        bucketed families); nothing a plan does changes it or the family,
        so forked scan workers share it copy-on-write.  A point not bound,
        or past the budget, gets equal values without tables.  A block with
        a seed outside the seed space raises InvalidArgument, as ``eval``
        does (``_check_block``).  The default is the scalar loop over
        ``eval`` on each block's seeds.
        """
        self._check_points(points)
        widths = self.seed_columns()
        offsets = np.cumsum((0, *widths)).tolist()

        def block(seeds):
            self._check_block(seeds)
            ints = [sum(v << o for v, o in zip(row, offsets))
                    for row in seed_words(seeds, widths).tolist()]

            def evaluate(x: int) -> np.ndarray:
                self._check_x(x)
                return np.array([self.eval(s, x) for s in ints], dtype=np.uint64)

            return evaluate

        return block

    def _check_seed(self, seed: int) -> None:
        if seed < 0 or seed >> self.seed_bits:
            raise InvalidArgument(
                f"seed {seed:#x} outside [0, 2^{self.seed_bits})"
            )

    def _check_block(self, seeds) -> None:
        """Refuse a ``range`` or packed block with a seed outside the seed
        space, as ``eval`` refuses the seed: a range's ends are checked,
        and a packed block's largest value (and least, if signed).  Word
        columns hold only their words' bits."""
        if isinstance(seeds, range):
            if seeds:
                self._check_seed(seeds[0])
                self._check_seed(seeds[-1])
        elif seeds.ndim == 1 and len(seeds):
            self._check_seed(int(seeds.max()))
            if seeds.dtype.kind == "i":
                self._check_seed(int(seeds.min()))

    def _check_x(self, x: int) -> None:
        if not 1 <= x <= self.domain_size:
            raise InvalidArgument(f"point {x} outside [1, {self.domain_size}]")

    def _check_points(self, points) -> list[int]:
        """The distinct points, in order, after every one is checked."""
        for x in points:
            self._check_x(x)
        return list(dict.fromkeys(int(x) for x in points))


class TWiseFamily(SeededFamily):
    """Degree-(t-1) polynomial family over GF(2^n), exactly t-wise uniform.

    Parameters
    ----------
    t : int
        Independence degree (t = 1 gives the constant family).
    domain_size, range_size : int
        N and M; M must be a power of two.  The family evaluates in
        GF(2^n), the smallest field with max(N, M) <= 2^n.
    """

    def __init__(self, t: int, domain_size: int, range_size: int) -> None:
        if t < 1:
            raise InvalidArgument("independence degree t must be >= 1")
        if domain_size < 1:
            raise InvalidArgument("domain_size must be >= 1")
        if range_size < 2 or range_size & (range_size - 1):
            raise InvalidArgument("range_size must be a power of two >= 2")
        ctx = find_irreducible(max(1, (max(domain_size, range_size) - 1).bit_length()))
        self.t = t
        self.ctx = ctx
        self.domain_size = domain_size
        self.range_size = range_size
        self.seed_bits = t * ctx.degree
        # coefficient words per point-table run; a run of one word saves
        # no gather, so then (n > POINT_TABLE_BITS / 2, or t = 1) every
        # point is evaluated by Horner
        run = min(t, POINT_TABLE_BITS // ctx.degree)
        self.run_words = run if run >= 2 else 0

    def seed_columns(self) -> tuple[int, ...]:
        return (self.ctx.degree,) * self.t

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

    def _run_tables(self, x: int) -> list[np.ndarray]:
        """The tables of point x, one per run of ``run_words`` words.

        At a fixed point chi = x - 1 the masked value is GF(2)-linear in
        the coefficient words.  So for each run, low words first, a table
        holds the XOR of the run's terms a_i chi^i, masked to the output
        bits, for every value of the run's bits, the higher words the
        slower axes.  It is the XOR of the runs' per-word rows, and each
        row is the XOR span of the terms x^j chi^i of its word's single
        bits.  Each table has at most 2^POINT_TABLE_BITS entries, in the
        narrowest dtype that holds M.
        """
        n, modulus, chi = self.ctx.degree, self.ctx.modulus, x - 1
        mask = self.range_size - 1
        images, power = [], 1
        for _ in range(self.t):
            term = power
            for _ in range(n):
                images.append(term & mask)
                term <<= 1
                term ^= modulus if term >> n else 0
            power = self.ctx.mul(power, chi)
        images = np.array(images, dtype=np.min_scalar_type(self.range_size))
        rows = row_spans(images.reshape(self.t, n))
        tables = []
        for start in range(0, self.t, self.run_words):
            table = rows[start]
            for row in rows[start + 1:start + self.run_words]:
                table = (row[:, None] ^ table).reshape(-1)
            # forked scan workers share a plan's tables: a write must raise
            table.flags.writeable = False
            tables.append(table)
        return tables

    def bind(self, points) -> Callable:
        """The plan of ``points``, with the tables (``_run_tables``) of the
        first that fit POINT_TABLE_BYTES when ``run_words`` > 0.

        Its evaluators take a checked point or, for TWisePRG, an unchecked
        uint64 array of points, one per seed, and return a fresh array.  A
        point with tables is read in one of two block forms, in the
        narrowest dtype that holds M:

        - an aligned block, a step-1 ``range`` of 2^B seeds from a
          multiple of 2^B, as every exhaustive block of kwise.scan is: a
          run of words wholly above bit B gives one table entry, one
          reaching below it the slice of its table that the block's low B
          bits sweep, and the values are the outer XOR of those slices,
          higher runs the slower axes, as ``_run_tables`` lays out its
          own tables;
        - any other block (a Monte-Carlo draw, a packed array, an
          unaligned range): the XOR of one gather per run of words, each
          at the run's bits, which are bound on the block's first such
          point.

        Otherwise the value is Horner's, as uint64.  Horner's coefficients
        are the block's word columns, cut on its first use of them.  All
        but the top one are only XORed in, so they stay narrow: as uint64
        columns they lifted loads-test's per-block peak past the CLI's
        malloc trim threshold (51k minor faults instead of 13k).
        """
        points = self._check_points(points)
        n, t, run = self.ctx.degree, self.t, self.run_words
        tables, runs = {}, []
        if run:
            # (lowest seed bit, bits) of each run of words, high runs first
            runs = [(start * n, min(run, t - start) * n) for start in range(0, t, run)][::-1]
            nbytes = np.min_scalar_type(self.range_size).itemsize * sum(
                1 << bits for _, bits in runs)
            tables = {x: self._run_tables(x) for x in points[:POINT_TABLE_BYTES // nbytes]}

        def block(seeds):
            self._check_block(seeds)
            varying = len(seeds).bit_length() - 1
            # aligned: a range that seed_runs reads as one run of 2^varying seeds
            aligned = seed_runs(seeds, varying) is not None

            @functools.cache
            def word_columns() -> np.ndarray:
                return seed_words(seeds, self.seed_columns())

            @functools.cache
            def run_index() -> list[np.ndarray]:
                words, index = word_columns(), []
                for start in range(0, t, run):
                    bits = words[:, start].astype(np.intp)
                    for k in range(1, min(run, t - start)):
                        bits |= words[:, start + k].astype(np.intp) << (k * n)
                    index.append(bits)
                return index

            def aligned_values(x: int) -> np.ndarray:
                vals = np.zeros(1, dtype=tables[x][0].dtype)
                for table, (low, bits) in zip(tables[x][::-1], runs):
                    # the block sweeps the run's bits below bit `varying`;
                    # the ones above are the start's
                    base = (seeds.start >> low) & ((1 << bits) - 1)
                    swept = 1 << min(max(varying - low, 0), bits)
                    vals = (vals[:, None] ^ table[base:base + swept]).reshape(-1)
                return vals

            def gathered_values(x: int) -> np.ndarray:
                index = run_index()
                vals = tables[x][0].take(index[0])
                for table, bits in zip(tables[x][1:], index[1:]):
                    vals ^= table.take(bits)
                return vals

            def evaluate(x) -> np.ndarray:
                if isinstance(x, (int, np.integer)):
                    self._check_x(x)
                    x = int(x)
                    if x in tables:
                        vals = aligned_values(x) if aligned else gathered_values(x)
                        vals += 1
                        return vals
                    chi = x - 1
                else:
                    chi = x.astype(np.uint64, copy=False) - np.uint64(1)
                coeffs = word_columns()
                # the products are fresh arrays, so the XOR can be in place
                # without touching the coefficient columns
                acc = coeffs[:, -1].astype(np.uint64)
                for i in range(t - 2, -1, -1):
                    acc = mul_block(self.ctx, acc, chi)
                    acc ^= coeffs[:, i]
                vals = acc & np.uint64(self.range_size - 1)
                vals += np.uint64(1)
                return vals

            return evaluate

        return block


class DirectSumFamily(SeededFamily):
    """Pointwise direct sum of two families on the same domain and range.

    The combined seed is the concatenation with the low summand's seed
    (and words) in the low bits.  For any fixed high seed the map is a
    cyclic bijection of each output, so exact t-wise marginal uniformity
    of either summand survives in the sum.
    """

    def __init__(self, low: SeededFamily, high: SeededFamily) -> None:
        if low.range_size != high.range_size:
            raise InvalidArgument(
                f"range sizes differ: {low.range_size} vs {high.range_size}"
            )
        if low.domain_size != high.domain_size:
            raise InvalidArgument(
                f"domain sizes differ: {low.domain_size} vs {high.domain_size}"
            )
        self.low = low
        self.high = high
        self.domain_size = low.domain_size
        self.range_size = low.range_size
        self.seed_bits = low.seed_bits + high.seed_bits

    @property
    def family_id(self) -> str:
        return f"dsum({self.low.family_id},{self.high.family_id})"

    def seed_columns(self) -> tuple[int, ...]:
        return self.low.seed_columns() + self.high.seed_columns()

    def split_seed(self, seed: int) -> tuple[int, int]:
        return seed & (self.low.seed_space - 1), seed >> self.low.seed_bits

    def eval(self, seed: int, x: int) -> int:
        self._check_seed(seed)
        s_low, s_high = self.split_seed(seed)
        return dsum_values(self.low.eval(s_low, x), self.high.eval(s_high, x), self.range_size)

    def bind(self, points) -> Callable:
        """Each summand's plan, bound once.  A step-1 ``range`` that
        ``seed_runs`` reads at the low summand's bits as (values, repeat)
        binds the high summand on ``values`` and the low one on the
        ``repeat`` seeds from start mod 2^(low bits), and its values are
        their outer sum, the high summand the slow axis.  Any other block
        is cut into the summands' word columns.  A ``range`` or packed
        block that reaches past the seed space raises InvalidArgument."""
        low, high = self.low.bind(points), self.high.bind(points)
        bits, cut = self.low.seed_bits, len(self.low.seed_columns())

        def block(seeds):
            self._check_block(seeds)
            runs = seed_runs(seeds, bits)
            if runs is None:
                words = seed_words(seeds, self.seed_columns())
                at_low, at_high = low(words[:, :cut]), high(words[:, cut:])
                return lambda x: dsum_values(at_low(x), at_high(x), self.range_size)
            values, repeat = runs
            lo = seeds.start % self.low.seed_space
            at_low, at_high = low(range(lo, lo + repeat)), high(values)
            return lambda x: dsum_values(at_high(x)[:, None], at_low(x),
                                         self.range_size).reshape(-1)

        return block
