"""Reference forms of construction facts the tests state but no command reads.

``design_widths`` and ``target_error`` are the analysis's width formulas
and target error for a parameter block; ``pack`` is the inverse of
``SeedLayout.unpack``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from minwise_lab.construction import ConstructionParams
from minwise_lab.errors import InvalidArgument
from minwise_lab.kwise import SeedLayout


def target_error(params: ConstructionParams) -> Fraction:
    """The target error 2^(-C*t) the parameter block is written in."""
    return Fraction(1, 2 ** (params.C * params.t))


def design_widths(params: ConstructionParams, kind: str) -> dict:
    """The width formulas the analysis assigns each component.

    These are reporting values; the binding arithmetic identity is
    that the layout's field widths sum to the family's seed_bits.
    """
    logn = math.log2(max(2, params.N))
    if kind == "minwise":
        return {
            "source_bits": math.ceil(params.C_e * logn),
            "output_bits": math.ceil(0.3 * params.C_e * logn),
            "per_bucket_seed_bits": params.C_e * params.t,
        }
    if kind == "kminwise":
        return {
            "source_bits": math.ceil(10 * params.k * params.C_e * logn),
            "output_bits": math.ceil(params.C_e * logn),
            "per_bucket_seed_bits": params.C_e * params.t,
        }
    raise InvalidArgument(f"unknown construction kind {kind!r}")


def pack(layout: SeedLayout, values: dict) -> int:
    """The seed whose fields hold ``values``, by field name."""
    seed = 0
    for f in layout.fields:
        v = values[f.name]
        if v < 0 or v >> f.width:
            raise InvalidArgument(
                f"field {f.name} value {v:#x} wider than {f.width} bits"
            )
        seed |= v << f.offset
    return seed
