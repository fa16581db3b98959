"""Reference rectangle-PRG routines the tests check the generators with.

``full_rectangle``, ``threshold_rectangle`` and ``at_most_rectangle``
build the rectangles the tests measure, ``expand`` reads a generator's
whole output vector through its scalar ``coord_eval``, and
``conditional_rectangle_check`` conditions a rectangle's exact
acceptance on one coordinate's value, by two exact counts of
``rectprg.rectangle_hits_exact``.
"""

from __future__ import annotations

from fractions import Fraction

from minwise_lab.errors import InvalidArgument, MinwiseLabError
from minwise_lab.rectprg import Rectangle, RectanglePRG, _check_shape, rectangle_hits_exact


class ConditionNeverHolds(MinwiseLabError):
    """Conditioning event has probability zero under the generator."""


def full_rectangle(dimension: int, alphabet: int) -> Rectangle:
    """The rectangle that accepts every vector."""
    return Rectangle(dimension, alphabet, (None,) * dimension)


def threshold_rectangle(dimension: int, alphabet: int, theta: int, coords=None) -> Rectangle:
    """1(x_i > theta) on the given coordinates (default: all of them); a
    theta below 0 puts 0 in the accept sets, which Rectangle refuses."""
    above = frozenset(range(theta + 1, alphabet + 1))
    if coords is None:
        coords = range(1, dimension + 1)
    return Rectangle.build(dimension, alphabet, {c: above for c in coords})


def at_most_rectangle(dimension: int, alphabet: int, theta: int, coords) -> Rectangle:
    """1(x_i <= theta) on the given coordinates."""
    below = frozenset(range(1, theta + 1))
    return Rectangle.build(dimension, alphabet, {c: below for c in coords})


def expand(prg: RectanglePRG, seed: int) -> tuple[int, ...]:
    """The full output vector for one seed."""
    prg._check_seed(seed)
    return tuple(prg.coord_eval(seed, i) for i in range(1, prg.dimension + 1))


def restricted_to(rect: Rectangle, coord: int, values) -> Rectangle:
    """Copy with coordinate ``coord`` replaced by the given accept set."""
    acc = list(rect.accept_sets)
    acc[coord - 1] = frozenset(values)
    return Rectangle(rect.dimension, rect.alphabet, tuple(acc))


def conditional_rectangle_check(
    prg: RectanglePRG, j: int, alpha: int, rect: Rectangle
) -> Fraction:
    """|E_prg[prod_{i != j} f_i | s_j = alpha] - prod_{i != j} E_U[f_i]|, exactly.

    ``rect`` must leave coordinate j unconstrained; the conditioning is
    exact over the full seed space.  Signals ConditionNeverHolds when no
    seed gives coordinate j the value alpha.
    """
    _check_shape(prg, rect)
    if rect.accept_sets[j - 1] is not None:
        raise InvalidArgument(f"rectangle must not constrain coordinate {j}")
    if not 1 <= alpha <= prg.alphabet:
        raise InvalidArgument(f"alpha {alpha} outside [1, {prg.alphabet}]")
    point = restricted_to(rect, j, {alpha})
    joint_hits, total = rectangle_hits_exact(prg, point)
    cond_rect = Rectangle.build(prg.dimension, prg.alphabet, {j: {alpha}})
    point_hits, _ = rectangle_hits_exact(prg, cond_rect)
    if point_hits == 0:
        raise ConditionNeverHolds(f"no seed gives coordinate {j} the value {alpha}")
    conditional = Fraction(joint_hits, point_hits)
    return abs(conditional - rect.uniform_expectation())
