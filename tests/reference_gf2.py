"""Reference GF(2) routines the tests check the library's elimination against.

The library keeps one elimination, ``gf2.EchelonBasis``, under ``rank``
and ``complement_basis``.  These are the textbook forms: the field
product written out, and the canonical reduced row echelon form with
the row and kernel bases read off it.
"""

from __future__ import annotations

from minwise_lab.errors import InvalidArgument
from minwise_lab.gf2 import BitMatrix, EchelonBasis, FieldContext, clmul, poly_mod


def field_mul(ctx: FieldContext, a: int, b: int) -> int:
    """Product of two field elements under ``ctx``'s modulus."""
    return poly_mod(clmul(a, b), ctx.modulus)


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


def row_basis(m: BitMatrix) -> BitMatrix:
    """Maximal independent subset of rows, scanning top to bottom."""
    basis = EchelonBasis()
    return BitMatrix(tuple(r for r in m.rows if basis.add(r)), m.cols)


def kernel_basis(m: BitMatrix) -> BitMatrix:
    """Canonical basis of {v : m·v = 0} for a full-row-rank matrix.

    The basis is read off the RREF: one vector per free column, ordered
    by free column index, so repeated calls agree bit for bit.  Raises
    InvalidArgument when rank(m) < nrows (the composition contract needs
    surjective stages, and silently dropping rows would hide that).
    """
    ech, pivots = rref(m)
    if len(pivots) != m.nrows:
        raise InvalidArgument(f"matrix has rank {len(pivots)} < {m.nrows} rows")
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
