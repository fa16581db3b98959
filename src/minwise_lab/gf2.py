"""Arithmetic in GF(2^n) and exact linear algebra over GF(2).

Field elements are plain Python ints (numpy uint64 arrays in the block
paths).  Bit i of an element holds the coefficient of x^i, so the integer
value of a polynomial doubles as its lexicographic key.  Matrices over
GF(2) are stored row-wise as int bitmasks with bit j addressing column j;
column 0 is the "leftmost" column for every pivot rule in this module.

All routines are exact; nothing here samples randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, NotFullRank

# ---------------------------------------------------------------------------
# polynomial arithmetic on int bitmasks
# ---------------------------------------------------------------------------


def clmul(a: int, b: int) -> int:
    """Carry-less (polynomial) product of two GF(2)[x] bitmasks."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def poly_mod(value: int, modulus: int) -> int:
    """Remainder of ``value`` modulo ``modulus`` in GF(2)[x].

    ``modulus`` must be nonzero.  Runs in O(deg(value) - deg(modulus))
    XOR steps; both arguments are int bitmasks.
    """
    md = modulus.bit_length() - 1
    vd = value.bit_length() - 1
    while vd >= md:
        value ^= modulus << (vd - md)
        vd = value.bit_length() - 1
    return value


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor in GF(2)[x] (polynomials are monic)."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _x_pow_2k_mod(k: int, modulus: int) -> int:
    """x^(2^k) mod modulus, by k squarings of the polynomial x."""
    r = 0b10
    for _ in range(k):
        r = poly_mod(clmul(r, r), modulus)
    return r


def is_irreducible(poly: int) -> bool:
    """Rabin irreducibility test for a GF(2)[x] bitmask.

    ``poly`` of degree n is irreducible iff x^(2^n) = x (mod poly) and
    gcd(x^(2^(n/p)) - x, poly) = 1 for every prime p dividing n.  The
    test is deterministic and runs in O(n) squarings, so it covers the
    full degree range of this library (n <= 64) comfortably.
    """
    n = poly.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if poly & 1 == 0:  # divisible by x
        return False
    if _x_pow_2k_mod(n, poly) != 0b10:
        return False
    for p in _prime_factors(n):
        h = _x_pow_2k_mod(n // p, poly) ^ 0b10
        if poly_gcd(poly, h) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldContext:
    """GF(2^n) presented as GF(2)[x] modulo a fixed irreducible polynomial.

    Attributes
    ----------
    degree : int
        The extension degree n; elements are n-bit values.
    modulus : int
        Bitmask of the irreducible modulus.  Has its degree-n bit and its
        constant bit set.
    """

    degree: int
    modulus: int

    def __post_init__(self) -> None:
        n = self.degree
        if n < 1:
            raise InvalidArgument("field degree must be >= 1")
        if self.modulus.bit_length() - 1 != n:
            raise InvalidArgument("modulus degree does not match field degree")
        if not (self.modulus & 1):
            raise InvalidArgument("modulus must have its constant bit set")

    @property
    def size(self) -> int:
        return 1 << self.degree

    def mul(self, a: int, b: int) -> int:
        return poly_mod(clmul(a, b), self.modulus)


def field_mul(ctx: FieldContext, a: int, b: int) -> int:
    """Product of two field elements under ``ctx``'s modulus."""
    return poly_mod(clmul(a, b), ctx.modulus)


def _field_pow(ctx: FieldContext, a: int, e: int) -> int:
    """a^e under ``ctx``'s modulus, by square-and-multiply."""
    acc = 1
    while e:
        if e & 1:
            acc = ctx.mul(acc, a)
        a = ctx.mul(a, a)
        e >>= 1
    return acc


@lru_cache(maxsize=None)
def find_irreducible(degree: int) -> FieldContext:
    """FieldContext for GF(2^degree) with the smallest valid modulus.

    Scans candidate bitmasks of the exact degree in increasing integer
    order and returns the first irreducible one, so the choice is the
    lexicographically smallest coefficient vector.  Candidates without a
    constant term are skipped: they are divisible by x (and for degree 1
    the modulus x would not present GF(2) faithfully as residues).
    Results are cached per degree.
    """
    if not 1 <= degree <= 64:
        raise InvalidArgument("supported field degrees are 1..64")
    for cand in range((1 << degree) | 1, 1 << (degree + 1), 2):
        if is_irreducible(cand):
            return FieldContext(degree, cand)
    raise AssertionError("unreachable: an irreducible exists for every degree")


# ---------------------------------------------------------------------------
# vectorized field multiplication (uint64 blocks)
# ---------------------------------------------------------------------------

# mul_block looks products up in log/antilog tables up to this degree; the
# tables of a wider field outgrow the cache, so it multiplies bit-serially
TABLE_MAX_DEGREE = 16


@lru_cache(maxsize=None)
def log_tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (log, exp) tables of GF(2^n) for n <= TABLE_MAX_DEGREE.

    With q = 2^n - 1 and g the smallest element of multiplicative order
    q (the smallest modulus is not always primitive, so x need not
    generate), ``exp`` is a uint64 array of 4q + 1 entries holding
    g^(i mod q) for i < 2q and 0 from 2q on, and ``log`` is an intp
    array of 2^n entries with exp[log[v]] = v for every nonzero v and
    log[0] = 2q.  A sum of two logs is then below 2q exactly when both
    factors are nonzero, so exp[log[a] + log[b]] is the product a·b
    with no branch on zero.  Built on first use and cached per field.
    """
    if ctx.degree > TABLE_MAX_DEGREE:
        raise InvalidArgument(f"log tables cover field degrees up to {TABLE_MAX_DEGREE}")
    if not is_irreducible(ctx.modulus):
        # a reducible modulus has zero divisors and no element of order q
        raise InvalidArgument(f"modulus {ctx.modulus:#x} is not irreducible")
    q = ctx.size - 1
    # g has order q iff g^(q/p) != 1 for every prime p dividing q
    factors = _prime_factors(q)
    g = next(c for c in range(1, ctx.size)
             if all(_field_pow(ctx, c, q // p) != 1 for p in factors))
    exp = np.zeros(4 * q + 1, dtype=np.uint64)
    exp[0] = 1
    filled = 1
    while filled < q:
        # g^filled times the first filled powers gives the next ones
        step = ctx.mul(int(exp[filled - 1]), g)
        top = min(2 * filled, q)
        exp[filled:top] = _mul_bit_serial(ctx, exp[:top - filled], step)
        filled = top
    exp[q:2 * q] = exp[:q]
    log = np.full(ctx.size, 2 * q, dtype=np.intp)
    log[exp[:q]] = np.arange(q)
    log.flags.writeable = exp.flags.writeable = False
    return log, exp


def mul_block(ctx: FieldContext, a: np.ndarray, b: "np.ndarray | int") -> np.ndarray:
    """Elementwise field product of a uint64 block with a scalar or block.

    Up to degree TABLE_MAX_DEGREE the product is a gather from the
    field's log_tables: exp[log[a] + log[b]] for a block b, and for a
    scalar b one 2^n-entry row exp[log + log[b]] gathered at a.  Wider
    fields multiply bit-serially: n shifted XORs, then n - 1 reduction
    passes by the modulus.

    Parameters
    ----------
    ctx : FieldContext
        Field of degree n <= 32 (products must fit in 64 bits).
    a : np.ndarray
        uint64 array of field elements, each below 2^n.
    b : np.ndarray | int
        Either a single element or an array broadcastable against ``a``.

    Returns
    -------
    np.ndarray
        uint64 array of reduced products, same shape as the broadcast.
    """
    n = ctx.degree
    if n > 32:
        raise InvalidArgument("mul_block supports field degrees up to 32")
    a = a.astype(np.uint64, copy=False)
    scalar = isinstance(b, (int, np.integer))
    if not scalar:
        b = b.astype(np.uint64, copy=False)
    if n <= TABLE_MAX_DEGREE:
        # take() on int64 views of the uint64 operands, with intp logs,
        # skips the cast of each index array to intp that indexing makes
        log, exp = log_tables(ctx)
        if scalar:
            return exp.take(log + log[b]).take(a.view(np.int64))
        return exp.take(log.take(a.view(np.int64)) + log.take(b.view(np.int64)))
    return _mul_bit_serial(ctx, a, b)


def _mul_bit_serial(ctx: FieldContext, a: np.ndarray, b: "np.ndarray | int") -> np.ndarray:
    """mul_block's product for uint64 operands, computed without tables."""
    n = ctx.degree
    acc = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
    if isinstance(b, (int, np.integer)):
        bb = int(b)
        i = 0
        while bb:
            if bb & 1:
                acc ^= a << np.uint64(i)
            bb >>= 1
            i += 1
    else:
        for i in range(n):
            bit = (b >> np.uint64(i)) & np.uint64(1)
            acc ^= (a * bit) << np.uint64(i)
    # reduce degrees 2n-2 .. n
    mod = np.uint64(ctx.modulus)
    for d in range(2 * n - 2, n - 1, -1):
        carry = (acc >> np.uint64(d)) & np.uint64(1)
        acc ^= (mod << np.uint64(d - n)) * carry
    return acc


def row_spans(rows: np.ndarray) -> np.ndarray:
    """(count, 2^m) XOR spans of a (count, m) stack of m rows each.

    Entry [c, a] is the XOR of rows[c, i] over the bits i set in a; the
    span of a + 2^i is that of a XOR row i, so the table doubles m times.
    """
    count, m = rows.shape
    span = np.zeros((count, 1 << m), dtype=rows.dtype)
    for i in range(m):
        span[:, 1 << i:2 << i] = span[:, :1 << i] ^ rows[:, i, None]
    return span


# ---------------------------------------------------------------------------
# GF(2) matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over GF(2); row i is the int bitmask ``rows[i]``."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise InvalidArgument("cols must be nonnegative")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise InvalidArgument("row value exceeds column count")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_images(images: "list[int] | tuple[int, ...]", out_bits: int) -> "BitMatrix":
        """Matrix of the linear map sending basis vector e_j to images[j].

        The result has ``out_bits`` rows and ``len(images)`` columns, so
        mat_vec(result, x) reproduces the map on every x.
        """
        rows = []
        for i in range(out_bits):
            r = 0
            for j, img in enumerate(images):
                r |= ((img >> i) & 1) << j
            rows.append(r)
        return BitMatrix(tuple(rows), len(images))


def mat_vec(m: BitMatrix, v: int) -> int:
    """Product m · v; bit i of the result is <row_i, v> over GF(2)."""
    out = 0
    for i, r in enumerate(m.rows):
        out |= ((r & v).bit_count() & 1) << i
    return out


def rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form with the fixed leftmost-pivot rule.

    Returns (echelon matrix without zero rows, pivot column indices in
    increasing order).  The output is the canonical RREF of the row
    space, so every routine built on it is deterministic.
    """
    rows = list(m.rows)
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(m.cols):
        pick = None
        for idx, r in enumerate(rows):
            if (r >> col) & 1:
                pick = idx
                break
        if pick is None:
            continue
        piv = rows.pop(pick)
        rows = [r ^ piv if (r >> col) & 1 else r for r in rows]
        reduced = [r ^ piv if (r >> col) & 1 else r for r in reduced]
        reduced.append(piv)
        pivots.append(col)
    return BitMatrix(tuple(reduced), m.cols), tuple(pivots)


def rank(m: BitMatrix) -> int:
    """Rank over GF(2)."""
    return len(rref(m)[1])


class EchelonBasis:
    """Incremental GF(2) elimination basis for int-bitmask vectors.

    Every stored vector has a distinct lowest set bit, and the vectors
    are kept sorted by it, so one ascending pass clears each stored
    lowest bit in turn: the remainder is zero iff the vector lies in the
    span, and otherwise its lowest bit is new.
    """

    def __init__(self) -> None:
        self.vectors: list[int] = []

    def __len__(self) -> int:
        return len(self.vectors)

    def add(self, v: int) -> bool:
        """Insert v if it is independent of the span; report whether it was."""
        for b in self.vectors:
            if v & (b & -b):
                v ^= b
        if v:
            self.vectors.append(v)
            self.vectors.sort(key=lambda b: b & -b)
        return bool(v)


def row_basis(m: BitMatrix) -> BitMatrix:
    """Maximal independent subset of rows, scanning top to bottom."""
    basis = EchelonBasis()
    return BitMatrix(tuple(r for r in m.rows if basis.add(r)), m.cols)


def complement_basis(m: BitMatrix) -> BitMatrix:
    """Unit-vector rows completing m's row space to all of GF(2)^cols.

    Scans e_0, e_1, ... and keeps each unit vector independent of m's
    rows and the completions picked so far, so the result is the
    deterministic lexicographically-smallest completion; stacking m's
    independent rows over it gives an invertible matrix.  The rows are
    the "dual coordinates" used by the composition combinator: for
    full-row-rank m, (m·x, complement_basis(m)·x) is a bijection of x.
    """
    basis = EchelonBasis()
    for r in m.rows:
        basis.add(r)
    picked = []
    for j in range(m.cols):
        if len(basis) == m.cols:
            break
        if basis.add(1 << j):
            picked.append(1 << j)
    return BitMatrix(tuple(picked), m.cols)


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Canonical basis of {v : m·v = 0} for a full-row-rank matrix.

    The basis is read off the RREF: one vector per free column, ordered
    by free column index, so repeated calls agree bit for bit.  Raises
    NotFullRank when rank(m) < nrows (the composition contract needs
    surjective stages, and silently dropping rows would hide that).
    """
    ech, pivots = rref(m)
    if len(pivots) != m.nrows:
        raise NotFullRank(f"matrix has rank {len(pivots)} < {m.nrows} rows")
    pivot_set = set(pivots)
    vecs = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for i, p in enumerate(pivots):
            if (ech.rows[i] >> free) & 1:
                v |= 1 << p
        vecs.append(v)
    return BitMatrix(tuple(vecs), m.cols)
