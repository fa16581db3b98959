"""PRGs for combinatorial rectangles and exact rectangle-error oracles.

A RectanglePRG stretches a short seed into a vector in [M]^N; its
quality is the worst additive error |E_seed[f(G(seed))] - E_U[f]| over
rectangle predicates f(x) = prod_i 1(x_i in S_i).  The generators here
are measured baselines, not the asymptotically optimal constructions
the analysis consumes as black boxes: declared errors are metadata that
the exact oracle audits at small dimensions.

Threshold rectangles 1(x_i > theta) get first-class constructors since
every min-wise event is built from them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadSeedLength, ConditionNeverHolds, DomainOverflow
from .gf2 import find_irreducible, mul_block
from .kwise import SeededFamily, TWiseFamily, scan_seeds


@dataclass(frozen=True)
class Rectangle:
    """Product predicate on [M]^N; accept_sets[i] = None means all of [M]."""

    dimension: int
    alphabet: int
    accept_sets: tuple

    def __post_init__(self) -> None:
        if len(self.accept_sets) != self.dimension:
            raise ValueError("one accept set per coordinate required")
        for s in self.accept_sets:
            if s is None:
                continue
            if not all(1 <= v <= self.alphabet for v in s):
                raise ValueError("accept set member outside [1, M]")

    @classmethod
    def full(cls, dimension: int, alphabet: int) -> "Rectangle":
        return cls(dimension, alphabet, (None,) * dimension)

    @classmethod
    def build(cls, dimension: int, alphabet: int, sets: dict) -> "Rectangle":
        """Rectangle from a {1-indexed coordinate: iterable of values} dict."""
        acc: list = [None] * dimension
        for coord, vals in sets.items():
            if not 1 <= coord <= dimension:
                raise ValueError(f"coordinate {coord} outside [1, {dimension}]")
            acc[coord - 1] = frozenset(vals)
        return cls(dimension, alphabet, tuple(acc))

    @classmethod
    def threshold(cls, dimension: int, alphabet: int, theta: int, coords=None) -> "Rectangle":
        """1(x_i > theta) on the given coordinates (default: all of them)."""
        above = frozenset(range(theta + 1, alphabet + 1))
        if coords is None:
            coords = range(1, dimension + 1)
        return cls.build(dimension, alphabet, {c: above for c in coords})

    @classmethod
    def at_most(cls, dimension: int, alphabet: int, theta: int, coords) -> "Rectangle":
        """1(x_i <= theta) on the given coordinates."""
        below = frozenset(range(1, theta + 1))
        return cls.build(dimension, alphabet, {c: below for c in coords})

    def restricted_to(self, coord: int, values) -> "Rectangle":
        """Copy with coordinate ``coord`` replaced by the given accept set."""
        acc = list(self.accept_sets)
        acc[coord - 1] = frozenset(values)
        return Rectangle(self.dimension, self.alphabet, tuple(acc))

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
    """Seeded generator of vectors in [M]^N with a declared rectangle error."""

    seed_bits: int
    dimension: int
    alphabet: int
    claimed_error: float | None

    @property
    def seed_space(self) -> int:
        return 1 << self.seed_bits

    @property
    @abc.abstractmethod
    def prg_id(self) -> str:
        """Stable identifier for configs and reports."""

    @abc.abstractmethod
    def coord_eval(self, seed: int, coord: int) -> int:
        """Value of the 1-indexed coordinate, in [M]."""

    @abc.abstractmethod
    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        """Vectorized coord_eval; ``coords`` is an int or an array."""

    def expand(self, seed: int) -> tuple[int, ...]:
        """The full output vector for one seed."""
        self._check_seed(seed)
        return tuple(self.coord_eval(seed, i) for i in range(1, self.dimension + 1))

    def _check_seed(self, seed: int) -> None:
        if seed < 0 or seed >> self.seed_bits:
            raise BadSeedLength(f"seed {seed:#x} outside [0, 2^{self.seed_bits})")

    def _check_coord(self, coord: int) -> None:
        if not 1 <= coord <= self.dimension:
            raise DomainOverflow(f"coordinate {coord} outside [1, {self.dimension}]")


class FullIndependencePRG(RectanglePRG):
    """The identity chunking: N·log2(M) seed bits, one chunk per coordinate.

    Its output is exactly uniform on [M]^N, so every rectangle error is 0.
    """

    def __init__(self, dimension: int, alphabet: int):
        if alphabet < 2 or alphabet & (alphabet - 1):
            raise ValueError("alphabet must be a power of two >= 2")
        self.dimension = dimension
        self.alphabet = alphabet
        self.value_bits = alphabet.bit_length() - 1
        self.seed_bits = dimension * self.value_bits
        self.claimed_error = 0.0

    @property
    def prg_id(self) -> str:
        return f"fullind(N={self.dimension},M={self.alphabet})"

    def coord_eval(self, seed: int, coord: int) -> int:
        self._check_seed(seed)
        self._check_coord(coord)
        return ((seed >> ((coord - 1) * self.value_bits)) & (self.alphabet - 1)) + 1

    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        seeds = seeds.astype(np.uint64, copy=False)
        shift = (np.asarray(coords, dtype=np.uint64) - np.uint64(1)) * np.uint64(self.value_bits)
        return ((seeds >> shift) & np.uint64(self.alphabet - 1)) + np.uint64(1)


class TWisePRG(RectanglePRG):
    """Coordinate i is a degree-(t-1) polynomial family evaluated at i."""

    def __init__(self, t: int, dimension: int, alphabet: int, claimed_error: float | None = None):
        self.family = TWiseFamily(t, dimension, alphabet)
        self.t = t
        self.dimension = dimension
        self.alphabet = alphabet
        self.seed_bits = self.family.seed_bits
        self.claimed_error = claimed_error

    @property
    def prg_id(self) -> str:
        return f"twise_prg(t={self.t},N={self.dimension},M={self.alphabet})"

    def coord_eval(self, seed: int, coord: int) -> int:
        return self.family.eval(seed, coord)

    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        if isinstance(coords, (int, np.integer)):
            return self.family.eval_block(seeds, int(coords))
        chi = coords.astype(np.uint64) - np.uint64(1)
        acc = self.family._horner_block(seeds.astype(np.uint64, copy=False), chi)
        return (acc & np.uint64(self.alphabet - 1)) + np.uint64(1)


class RecursiveMixPRG(RectanglePRG):
    """Recursive halving generator with a pairwise-independent combiner.

    One b-bit base cell x (b = log2 M) is expanded by L = log2 N halving
    levels: level i carries a pairwise hash h_i(x) = a_i·x ^ b_i over
    GF(2^b), and coordinate j reads the cell obtained by applying h_i
    exactly when bit i of j-1 is set — i.e. G_{2m}(x) = G_m(x) ‖
    G_m(h_i(x)), two half-length expansions of hashed copies of the same
    cell.  Structural scaffolding: its rectangle error is measured by
    the oracle, never assumed.

    Seed layout, low bits first: x (b bits), then (a_i, b_i) per level.
    """

    def __init__(self, dimension: int, alphabet: int, claimed_error: float | None = None):
        if dimension < 1 or dimension & (dimension - 1):
            raise ValueError("dimension must be a power of two >= 1")
        if alphabet < 2 or alphabet & (alphabet - 1):
            raise ValueError("alphabet must be a power of two >= 2")
        self.dimension = dimension
        self.alphabet = alphabet
        self.levels = dimension.bit_length() - 1
        self.ctx = find_irreducible(alphabet.bit_length() - 1)
        b = self.ctx.degree
        self.cell_bits = b
        self.seed_bits = b + self.levels * 2 * b
        self.claimed_error = claimed_error

    @property
    def prg_id(self) -> str:
        return f"recmix(N={self.dimension},M={self.alphabet})"

    def _level_key(self, seed: int, level: int) -> tuple[int, int]:
        b = self.cell_bits
        chunk = seed >> (b + level * 2 * b)
        return chunk & ((1 << b) - 1), (chunk >> b) & ((1 << b) - 1)

    def coord_eval(self, seed: int, coord: int) -> int:
        self._check_seed(seed)
        self._check_coord(coord)
        x = seed & ((1 << self.cell_bits) - 1)
        path = coord - 1
        for level in range(self.levels):
            if (path >> level) & 1:
                a, c = self._level_key(seed, level)
                x = self.ctx.mul(a, x) ^ c
        return (x & (self.alphabet - 1)) + 1

    def coord_block(self, seeds: np.ndarray, coords) -> np.ndarray:
        seeds = seeds.astype(np.uint64, copy=False)
        b = np.uint64(self.cell_bits)
        mask = np.uint64((1 << self.cell_bits) - 1)
        x = seeds & mask
        scalar = isinstance(coords, (int, np.integer))
        path = int(coords) - 1 if scalar else np.asarray(coords, dtype=np.uint64) - np.uint64(1)
        for level in range(self.levels):
            if scalar and not (path >> level) & 1:
                continue
            off = np.uint64(self.cell_bits + level * 2 * self.cell_bits)
            a = (seeds >> off) & mask
            c = (seeds >> (off + b)) & mask
            hashed = mul_block(self.ctx, a, x) ^ c
            if scalar:
                x = hashed
            else:
                take = ((path >> np.uint64(level)) & np.uint64(1)).astype(bool)
                x = np.where(take, hashed, x)
        return (x & np.uint64(self.alphabet - 1)) + np.uint64(1)


class PRGHashFamily(SeededFamily):
    """A RectanglePRG viewed as the hash family {x -> expand(seed)[x]}.

    This is the object of the reduction between rectangle-fooling PRGs
    and min-wise hashing, and it plugs straight into measure_minwise.
    """

    def __init__(self, prg: RectanglePRG):
        self.prg = prg
        self.domain_size = prg.dimension
        self.range_size = prg.alphabet
        self.seed_bits = prg.seed_bits

    @property
    def family_id(self) -> str:
        return f"prg_family({self.prg.prg_id})"

    def eval(self, seed: int, x: int) -> int:
        self._check_x(x)
        return self.prg.coord_eval(seed, x)

    def eval_block(self, seeds: np.ndarray, x: int) -> np.ndarray:
        self._check_x(x)
        return self.prg.coord_block(seeds, x)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _check_shape(prg: RectanglePRG, rect: Rectangle) -> None:
    if rect.dimension != prg.dimension or rect.alphabet != prg.alphabet:
        raise ValueError("rectangle shape does not match the generator")


def _accepted(prg: RectanglePRG, rect: Rectangle):
    """Counter of the seeds in a block whose output the rectangle accepts.

    Coordinates are tested in order and a block stops being read once
    no seed in it is left.
    """
    active = rect.active_coords()
    tables = {i: rect.member_table(i) for i in active}

    def count(seeds: np.ndarray) -> int:
        acc = np.ones(len(seeds), dtype=bool)
        for i in active:
            vals = prg.coord_block(seeds, i)
            acc &= tables[i][vals.astype(np.int64)]
            if not acc.any():
                break
        return int(acc.sum())

    return count


def _order_pairs(prg: RectanglePRG, low: list[int], high: list[int]):
    """Counter of the (max over ``low``, min over ``high``) output pairs in a block.

    Each coordinate is evaluated once.  Cell a * (M+1) + b counts pair
    (a, b); a is 0 and only that row is kept when ``low`` is empty.
    """
    side = prg.alphabet + 1

    def extreme(seeds, coords, reduce):
        acc = prg.coord_block(seeds, coords[0])
        for i in coords[1:]:
            reduce(acc, prg.coord_block(seeds, i), out=acc)
        return acc.astype(np.intp)

    def count(seeds: np.ndarray) -> np.ndarray:
        pair = extreme(seeds, high, np.minimum)
        if low:
            pair += extreme(seeds, low, np.maximum) * side
        return np.bincount(pair, minlength=side * side if low else side)

    return count


def order_statistic_tails(prg: RectanglePRG, low, high, mode: str = "exhaustive",
                          samples: int | None = None, run_seed: int = 0,
                          threads: int = 1, chunk_bits: int = 20) -> tuple[np.ndarray, int]:
    """(tails, seeds counted): tails[a, theta], theta = 0..M, counts the seeds
    whose output has maximum a over the coordinates ``low`` and minimum
    above theta over ``high``.

    As suffix sums of one (max, min) histogram, it answers every rectangle
    [max over low <= top] and [min over high > theta] from one pass:
    column theta summed over rows 0..top.  Exhaustive mode scans through
    scan_seeds on ``threads`` workers; monte-carlo mode counts the draw
    that rectangle_error makes for the same run_seed.
    """
    low, high = [int(i) for i in low], [int(i) for i in high]
    if not high:
        raise ValueError("need at least one coordinate to take the minimum over")
    for i in low + high:
        prg._check_coord(i)
    count = _order_pairs(prg, low, high)
    if mode == "exhaustive":
        flat, total = scan_seeds(prg.seed_bits, count, chunk_bits, threads), prg.seed_space
    elif mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    elif not samples or samples < 1:
        raise ValueError("monte-carlo mode needs a positive sample count")
    else:
        flat, total = count(_draw_seeds(prg, samples, run_seed)), samples
    hist = flat.reshape(-1, prg.alphabet + 1)
    tails = np.zeros_like(hist)
    tails[:, :-1] = hist[:, :0:-1].cumsum(axis=1)[:, ::-1]
    return tails, total


def _draw_seeds(prg: RectanglePRG, samples: int, run_seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=run_seed))
    return rng.integers(0, prg.seed_space, size=samples, dtype=np.uint64)


def _additive_error(hits: int, total: int, uniform: Fraction, mode: str) -> float:
    """|hits/total - uniform|: exact in exhaustive mode, a float difference in mc."""
    if mode == "exhaustive":
        return abs(float(Fraction(hits, total) - uniform))
    return abs(hits / total - float(uniform))


def rectangle_hits_exact(prg: RectanglePRG, rect: Rectangle, chunk_bits: int = 20) -> tuple[int, int]:
    """Exact (#seeds accepted by the rectangle, #seeds), by enumeration."""
    _check_shape(prg, rect)
    return scan_seeds(prg.seed_bits, _accepted(prg, rect), chunk_bits), prg.seed_space


def rectangle_error(
    prg: RectanglePRG,
    rect: Rectangle,
    mode: str = "exhaustive",
    samples: int | None = None,
    run_seed: int = 0,
) -> float:
    """|E_seed[f(G(seed))] - E_U[f]|, exact in exhaustive mode.

    Exhaustive mode needs seed_bits <= 24 and signals
    SeedSpaceTooLarge otherwise; monte-carlo mode is an explicit
    opt-in with a declared sample count, using the counter-based Philox
    generator keyed by run_seed.
    """
    uniform = rect.uniform_expectation()
    if mode == "exhaustive":
        count, total = rectangle_hits_exact(prg, rect)
    elif mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    elif not samples or samples < 1:
        raise ValueError("monte-carlo mode needs a positive sample count")
    else:
        _check_shape(prg, rect)
        count, total = _accepted(prg, rect)(_draw_seeds(prg, samples, run_seed)), samples
    return _additive_error(count, total, uniform, mode)


def threshold_errors(prg: RectanglePRG, thetas, mode: str = "exhaustive",
                     samples: int | None = None, run_seed: int = 0,
                     threads: int = 1) -> list[float]:
    """rectangle_error of Rectangle.threshold(N, M, theta) for every theta,
    all read off one order_statistic_tails pass over every coordinate."""
    thetas = [int(t) for t in thetas]
    rects = [Rectangle.threshold(prg.dimension, prg.alphabet, t) for t in thetas]
    tails, total = order_statistic_tails(prg, [], range(1, prg.dimension + 1),
                                         mode, samples, run_seed, threads)
    return [_additive_error(int(tails[0, min(t, prg.alphabet)]), total,
                            rect.uniform_expectation(), mode)
            for t, rect in zip(thetas, rects)]


def conditional_rectangle_check(
    prg: RectanglePRG, j: int, alpha: int, rect: Rectangle
) -> float:
    """|E_prg[prod_{i != j} f_i | s_j = alpha] - prod_{i != j} E_U[f_i]|.

    ``rect`` must leave coordinate j unconstrained; the conditioning is
    exact over the full seed space.  Signals ConditionNeverHolds when no
    seed gives coordinate j the value alpha.
    """
    _check_shape(prg, rect)
    if rect.accept_sets[j - 1] is not None:
        raise ValueError(f"rectangle must not constrain coordinate {j}")
    if not 1 <= alpha <= prg.alphabet:
        raise DomainOverflow(f"alpha {alpha} outside [1, {prg.alphabet}]")
    point = rect.restricted_to(j, {alpha})
    joint_hits, total = rectangle_hits_exact(prg, point)
    cond_rect = Rectangle.build(prg.dimension, prg.alphabet, {j: {alpha}})
    point_hits, _ = rectangle_hits_exact(prg, cond_rect)
    if point_hits == 0:
        raise ConditionNeverHolds(f"no seed gives coordinate {j} the value {alpha}")
    conditional = Fraction(joint_hits, point_hits)
    return abs(float(conditional - rect.uniform_expectation()))
