"""Explicit (k-)min-wise hash families over GF(2^n) with verification oracles.

The package splits into construction layers (gf2, kwise, extractor,
rectprg, construction) and the measurement layer (verify, cli).  The
top-level namespace re-exports the pieces most callers need: build a
family from parameters or a JSON config, then measure it.
"""

from __future__ import annotations

from .construction import (
    BucketedKMinwiseFamily,
    BucketedMinwiseFamily,
    ConstructionParams,
    SeedLayout,
    build_kminwise,
    build_minwise,
    family_from_config,
    seed_layout,
)
from .errors import MinwiseLabError
from .extractor import LeftoverHash
from .kwise import DirectSumFamily, SeededFamily, TWiseFamily
from .rectprg import (
    FullIndependencePRG,
    PRGHashFamily,
    Rectangle,
    RecursiveMixPRG,
    TWisePRG,
)
from .verify import (
    ErrorReport,
    check_load_lemma,
    check_reduction,
    check_twise_tail,
    measure_corpus,
    measure_minwise,
    uniform_minwise_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BucketedKMinwiseFamily",
    "BucketedMinwiseFamily",
    "ConstructionParams",
    "DirectSumFamily",
    "ErrorReport",
    "FullIndependencePRG",
    "LeftoverHash",
    "MinwiseLabError",
    "PRGHashFamily",
    "Rectangle",
    "RecursiveMixPRG",
    "SeedLayout",
    "SeededFamily",
    "TWiseFamily",
    "TWisePRG",
    "build_kminwise",
    "build_minwise",
    "check_load_lemma",
    "check_reduction",
    "check_twise_tail",
    "family_from_config",
    "measure_corpus",
    "measure_minwise",
    "seed_layout",
    "uniform_minwise_probability",
]
