"""Explicit (k-)min-wise hash families over GF(2^n) with verification oracles.

The package splits into construction layers (gf2, kwise, extractor,
rectprg, construction) and the measurement layer (verify, cli).  The
top-level namespace re-exports the pieces most callers need: build a
family from parameters or a JSON config, then measure it.  Each name is
imported from its module on first use (PEP 562), so importing the
package, or one module of it, loads nothing else.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "BucketedKMinwiseFamily": "construction",
    "BucketedMinwiseFamily": "construction",
    "ConstructionParams": "construction",
    "SeedLayout": "construction",
    "family_from_config": "construction",
    "MinwiseLabError": "errors",
    "LeftoverHash": "extractor",
    "DirectSumFamily": "kwise",
    "SeededFamily": "kwise",
    "TWiseFamily": "kwise",
    "FullIndependencePRG": "rectprg",
    "PRGHashFamily": "rectprg",
    "Rectangle": "rectprg",
    "RecursiveMixPRG": "rectprg",
    "TWisePRG": "rectprg",
    "ErrorReport": "verify",
    "check_load_lemma": "verify",
    "check_reduction": "verify",
    "check_twise_tails": "verify",
    "measure_corpus": "verify",
    "measure_minwise": "verify",
    "uniform_minwise_probability": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
