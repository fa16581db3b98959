"""PRGs for combinatorial rectangles and exact rectangle-error oracles.

A RectanglePRG stretches a short seed into a vector in [M]^N; its
quality is the worst additive error |E_seed[f(G(seed))] - E_U[f]| over
rectangle predicates f(x) = prod_i 1(x_i in S_i).  The generators here
are measured baselines, not the asymptotically optimal constructions
the analysis consumes as black boxes: an error claimed for one is a
prg-test config's, which the exact oracle audits at small dimensions.

Every min-wise event is built from threshold rectangles 1(x_i > theta);
threshold_errors measures all thresholds of a generator in one scan.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import Config, reading
from .errors import InvalidArgument
from .gf2 import find_irreducible, mul_block
from .kwise import SeededFamily, TWiseFamily, scan, seed_words


@dataclass(frozen=True)
class Rectangle:
    """Product predicate on [M]^N; accept_sets[i] = None means all of [M]."""

    dimension: int
    alphabet: int
    accept_sets: tuple

    def __post_init__(self) -> None:
        if len(self.accept_sets) != self.dimension:
            raise InvalidArgument("one accept set per coordinate required")
        for s in self.accept_sets:
            if s is None:
                continue
            if not all(1 <= v <= self.alphabet for v in s):
                raise InvalidArgument("accept set member outside [1, M]")

    @classmethod
    def build(cls, dimension: int, alphabet: int, sets: dict) -> "Rectangle":
        """Rectangle from a {1-indexed coordinate: iterable of values} dict."""
        acc: list = [None] * dimension
        for coord, vals in sets.items():
            if not 1 <= coord <= dimension:
                raise InvalidArgument(f"coordinate {coord} outside [1, {dimension}]")
            acc[coord - 1] = frozenset(vals)
        return cls(dimension, alphabet, tuple(acc))

    def uniform_expectation(self) -> Fraction:
        """Exact E_U[f] = prod |S_i| / M."""
        e = Fraction(1)
        for s in self.accept_sets:
            if s is not None:
                e *= Fraction(len(s), self.alphabet)
        return e

    def active_coords(self) -> list[int]:
        """1-indexed coordinates with a restricting accept set."""
        return [i + 1 for i, s in enumerate(self.accept_sets) if s is not None]

    def member_table(self, coord: int) -> np.ndarray:
        """Bool lookup over values 0..M for vectorized membership tests."""
        table = np.zeros(self.alphabet + 1, dtype=bool)
        s = self.accept_sets[coord - 1]
        if s is None:
            table[1:] = True
        else:
            for v in s:
                table[v] = True
        return table


class RectanglePRG(abc.ABC):
    """Seeded generator of vectors in [M]^N."""

    seed_bits: int
    dimension: int
    alphabet: int

    @property
    def seed_space(self) -> int:
        return 1 << self.seed_bits

    @property
    @abc.abstractmethod
    def prg_id(self) -> str:
        """Stable identifier for configs and reports."""

    @abc.abstractmethod
    def seed_columns(self) -> tuple[int, ...]:
        """Widths of the seed's words, low bits first; they sum to seed_bits."""

    @abc.abstractmethod
    def coord_eval(self, seed: int, coord: int) -> int:
        """Value of the 1-indexed coordinate, in [M]."""

    @abc.abstractmethod
    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        """Vectorized coord_eval on any seed block; ``coords`` is an int or an array."""

    def bind(self, coords):
        """The evaluation plan of ``coords``, as SeededFamily.bind, with
        coords -> coord_block(seeds, coords) a block's evaluator; a scalar
        coordinate is checked.  TWisePRG binds its family instead."""
        for coord in coords:
            self._check_coord(coord)

        def block(seeds):
            words = seed_words(seeds, self.seed_columns())

            def read(coords):
                if np.ndim(coords) == 0:
                    self._check_coord(coords)
                return self.coord_block(words, coords)

            return read

        return block

    def _check_seed(self, seed: int) -> None:
        if seed < 0 or seed >> self.seed_bits:
            raise InvalidArgument(f"seed {seed:#x} outside [0, 2^{self.seed_bits})")

    def _check_coord(self, coord: int) -> None:
        if not 1 <= coord <= self.dimension:
            raise InvalidArgument(f"coordinate {coord} outside [1, {self.dimension}]")


class FullIndependencePRG(RectanglePRG):
    """The identity chunking: N·log2(M) seed bits, one chunk per coordinate.

    Its output is exactly uniform on [M]^N, so every rectangle error is 0.
    """

    def __init__(self, dimension: int, alphabet: int):
        if dimension < 1:
            raise InvalidArgument("dimension must be >= 1")
        if alphabet < 2 or alphabet & (alphabet - 1):
            raise InvalidArgument("alphabet must be a power of two >= 2")
        self.dimension = dimension
        self.alphabet = alphabet
        self.value_bits = alphabet.bit_length() - 1
        self.seed_bits = dimension * self.value_bits

    @property
    def prg_id(self) -> str:
        return f"fullind(N={self.dimension},M={self.alphabet})"

    def seed_columns(self) -> tuple[int, ...]:
        return (self.value_bits,) * self.dimension

    def coord_eval(self, seed: int, coord: int) -> int:
        self._check_seed(seed)
        self._check_coord(coord)
        return ((seed >> ((coord - 1) * self.value_bits)) & (self.alphabet - 1)) + 1

    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        words = seed_words(seeds, self.seed_columns())
        column = np.asarray(coords, dtype=np.intp) - 1
        return words[np.arange(len(words)), column].astype(np.uint64) + np.uint64(1)


class TWisePRG(RectanglePRG):
    """Coordinate i is a degree-(t-1) polynomial family evaluated at i."""

    def __init__(self, t: int, dimension: int, alphabet: int):
        self.family = TWiseFamily(t, dimension, alphabet)
        self.t = t
        self.dimension = dimension
        self.alphabet = alphabet
        self.seed_bits = self.family.seed_bits

    @property
    def prg_id(self) -> str:
        return f"twise_prg(t={self.t},N={self.dimension},M={self.alphabet})"

    def seed_columns(self) -> tuple[int, ...]:
        return self.family.seed_columns()

    def coord_eval(self, seed: int, coord: int) -> int:
        return self.family.eval(seed, coord)

    def bind(self, coords):
        return self.family.bind(coords)

    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        """Horner's values at ``coords``, without point tables."""
        return self.family.bind(())(seeds)(coords)


class RecursiveMixPRG(RectanglePRG):
    """Recursive halving generator with a pairwise-independent combiner.

    One b-bit base cell x (b = log2 M) is expanded by L = log2 N halving
    levels: level i carries a pairwise hash h_i(x) = a_i·x ^ b_i over
    GF(2^b), and coordinate j reads the cell obtained by applying h_i
    exactly when bit i of j-1 is set — i.e. G_{2m}(x) = G_m(x) ‖
    G_m(h_i(x)), two half-length expansions of hashed copies of the same
    cell.  Structural scaffolding: its rectangle error is measured by
    the oracle, never assumed.

    Seed words, low bits first, each b bits: x, then (a_i, b_i) per level.
    """

    def __init__(self, dimension: int, alphabet: int):
        if dimension < 1 or dimension & (dimension - 1):
            raise InvalidArgument("dimension must be a power of two >= 1")
        if alphabet < 2 or alphabet & (alphabet - 1):
            raise InvalidArgument("alphabet must be a power of two >= 2")
        self.dimension = dimension
        self.alphabet = alphabet
        self.levels = dimension.bit_length() - 1
        self.ctx = find_irreducible(alphabet.bit_length() - 1)
        b = self.ctx.degree
        self.cell_bits = b
        self.seed_bits = b + self.levels * 2 * b

    @property
    def prg_id(self) -> str:
        return f"recmix(N={self.dimension},M={self.alphabet})"

    def seed_columns(self) -> tuple[int, ...]:
        return (self.cell_bits,) * (1 + 2 * self.levels)

    def coord_eval(self, seed: int, coord: int) -> int:
        self._check_seed(seed)
        self._check_coord(coord)
        b = self.cell_bits
        words = [(seed >> (i * b)) & ((1 << b) - 1) for i in range(1 + 2 * self.levels)]
        x, path = words[0], coord - 1
        for level in range(self.levels):
            if (path >> level) & 1:
                x = self.ctx.mul(words[1 + 2 * level], x) ^ words[2 + 2 * level]
        return (x & (self.alphabet - 1)) + 1

    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        words = seed_words(seeds, self.seed_columns())
        x = words[:, 0].astype(np.uint64)
        scalar = isinstance(coords, (int, np.integer))
        path = int(coords) - 1 if scalar else np.asarray(coords, dtype=np.uint64) - np.uint64(1)
        for level in range(self.levels):
            if scalar and not (path >> level) & 1:
                continue
            a, c = words[:, 1 + 2 * level], words[:, 2 + 2 * level]
            hashed = mul_block(self.ctx, x, a) ^ c
            if scalar:
                x = hashed
            else:
                take = ((path >> np.uint64(level)) & np.uint64(1)).astype(bool)
                x = np.where(take, hashed, x)
        return (x & np.uint64(self.alphabet - 1)) + np.uint64(1)


class PRGHashFamily(SeededFamily):
    """A RectanglePRG G viewed as the hash family {x -> G(seed)[x]}.

    This is the object of the reduction between rectangle-fooling PRGs
    and min-wise hashing, and it plugs straight into measure_minwise.
    """

    def __init__(self, prg: RectanglePRG):
        self.prg = prg
        self.domain_size = prg.dimension
        self.range_size = prg.alphabet
        self.seed_bits = prg.seed_bits

    def seed_columns(self) -> tuple[int, ...]:
        return self.prg.seed_columns()

    @property
    def family_id(self) -> str:
        return f"prg_family({self.prg.prg_id})"

    def eval(self, seed: int, x: int) -> int:
        self._check_x(x)
        return self.prg.coord_eval(seed, x)

    def bind(self, points):
        return self.prg.bind(self._check_points(points))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _check_shape(prg: RectanglePRG, rect: Rectangle) -> None:
    if rect.dimension != prg.dimension or rect.alphabet != prg.alphabet:
        raise InvalidArgument("rectangle shape does not match the generator")


def _accepted(prg: RectanglePRG, rect: Rectangle):
    """Counter of the seeds in a block whose output the rectangle accepts.

    Coordinates are tested in order, through the generator's plan of
    them, bound here and then once per block, and a block stops being read
    once no seed in it is left.
    """
    active = rect.active_coords()
    tables = {i: rect.member_table(i) for i in active}
    plan = prg.bind(active)

    def count(seeds: np.ndarray) -> int:
        read = plan(seeds)
        acc = np.ones(len(seeds), dtype=bool)
        for i in active:
            vals = read(i)
            acc &= tables[i][vals.astype(np.int64)]
            if not acc.any():
                break
        return int(acc.sum())

    return count


def _extreme(read, coords: list[int], reduce) -> np.ndarray:
    """``reduce`` (np.minimum or np.maximum) over the block's values at
    ``coords``, each read once, as intp."""
    acc = read(coords[0])
    for i in coords[1:]:
        reduce(acc, read(i), out=acc)
    return acc.astype(np.intp)


def strict_order_margins(prg: RectanglePRG, low, high, *, samples: int | None = None,
                         run_seed: int | None = None,
                         threads: int = 1) -> tuple[np.ndarray, np.ndarray, int]:
    """(at_max, at_min, seeds counted) over the seeds whose output has
    a = max over ``low`` below b = min over ``high``: at_max[v] counts
    those with a = v and at_min[v] those with b = v, for v = 0..M.

    Every rectangle [max over low <= top] and [min over high > theta]
    with top <= theta holds only such seeds, and counts
    #{a <= top} - #{b <= theta} of them, in O(M) cells.  The max over an
    empty ``low`` is 0, below every output, so then at_min is the law of
    the minimum over ``high`` and #{min > theta} is
    total - at_min.cumsum()[theta].  The seeds are those of kwise.scan on
    PRGHashFamily(prg) for ``samples`` and ``run_seed``, as in
    rectangle_error; the blocks are split over ``threads`` workers, with
    the same result.
    """
    low, high = [int(i) for i in low], [int(i) for i in high]
    if not high:
        raise InvalidArgument("need at least one coordinate to take the minimum over")
    plan = prg.bind(low + high)
    side = prg.alphabet + 1

    def count(seeds: np.ndarray) -> np.ndarray:
        read = plan(seeds)
        b = _extreme(read, high, np.minimum)
        a = _extreme(read, low, np.maximum) if low else np.zeros_like(b)
        # outputs lie in [1, M], so cell 0 of b's margin collects exactly
        # the seeds with a >= b, and so does cell 0 of a's, on top of the
        # seeds with a = 0 < b
        below = a < b
        a *= below
        b *= below
        return np.concatenate((np.bincount(a, minlength=side),
                               np.bincount(b, minlength=side)))

    both, total = scan(PRGHashFamily(prg), count, samples=samples, run_seed=run_seed,
                       threads=threads)
    both[0] -= both[side]
    both[side] = 0
    return both[:side], both[side:], total


def rectangle_hits_exact(prg: RectanglePRG, rect: Rectangle) -> tuple[int, int]:
    """Exact (#seeds accepted by the rectangle, #seeds), by enumeration."""
    _check_shape(prg, rect)
    return scan(PRGHashFamily(prg), _accepted(prg, rect))


def rectangle_error(
    prg: RectanglePRG,
    rect: Rectangle,
    *,
    samples: int | None = None,
    run_seed: int | None = None,
) -> Fraction:
    """|E_seed[f(G(seed))] - E_U[f]| over the seeds counted, exactly.

    The seeds are those of kwise.scan on PRGHashFamily(prg) for
    ``samples`` and ``run_seed``: every seed without ``samples``, else a
    Monte-Carlo draw.
    """
    _check_shape(prg, rect)
    count, total = scan(PRGHashFamily(prg), _accepted(prg, rect),
                        samples=samples, run_seed=run_seed)
    return abs(Fraction(count, total) - rect.uniform_expectation())


def threshold_errors(prg: RectanglePRG, thetas, *, samples: int | None = None,
                     run_seed: int | None = None, threads: int = 1) -> list[Fraction]:
    """rectangle_error of the rectangle 1(x_i > theta) on every coordinate,
    for every theta, all read off one pass of strict_order_margins with an
    empty ``low``: #{min over every coordinate > theta} is
    total - at_min.cumsum()[theta], and its uniform reference is
    ((M - theta)/M)^N, 0 once theta >= M."""
    thetas = [int(t) for t in thetas]
    if any(t < 0 for t in thetas):
        raise InvalidArgument("thresholds must be >= 0")
    N, M = prg.dimension, prg.alphabet
    _, at_min, total = strict_order_margins(prg, [], range(1, N + 1), samples=samples,
                                            run_seed=run_seed, threads=threads)
    at_most = at_min.cumsum()
    return [abs(Fraction(total - int(at_most[min(t, M)]), total) - Fraction(max(M - t, 0), M) ** N)
            for t in thetas]


# ---------------------------------------------------------------------------
# JSON config plumbing: the PRG reader of prg-test, reduction-test and
# construction.family_from_config
# ---------------------------------------------------------------------------


def prg_from_config(desc: dict | Config, dimension: int, alphabet: int) -> RectanglePRG:
    """Instantiate a rectangle PRG from a {kind, ...} descriptor.  A t-wise
    PRG takes t <= dimension: at t = dimension its coordinates are already
    fully independent."""
    with reading(desc) as cfg:
        kind = cfg.string("kind", choices=("full_independence", "twise", "recursive_mix"))
        if kind == "twise":
            return TWisePRG(cfg.int("t", lo=1, hi=dimension), dimension, alphabet)
        if kind == "recursive_mix":
            return RecursiveMixPRG(dimension, alphabet)
        return FullIndependencePRG(dimension, alphabet)
