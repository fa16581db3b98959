"""Time minwise-lab's set-up for one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SPEC_JSON

SPEC_JSON lists what the workload's commands build, as
``[[kind, config_path], ...]`` with kind one of ``family``, ``prg``,
``allocation`` and ``extractor``.  The clock starts before
``import minwise_lab.cli`` and stops after the last object is built;
the elapsed seconds are printed as JSON together with where the package
was imported from.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import minwise_lab.cli  # noqa: F401  (the CLI pays for the whole package)
    from minwise_lab import LeftoverHash, TWiseFamily, family_from_config
    from minwise_lab.construction import prg_from_config

    built = []
    for kind, path in spec:
        cfg = json.loads(Path(path).read_text())
        if kind == "family":
            built.append(family_from_config(cfg["construction"]))
        elif kind == "prg":
            built.append(prg_from_config(cfg["prg"], int(cfg["dimension"]),
                                         int(cfg["alphabet"])))
        elif kind == "allocation":
            built.append(TWiseFamily(int(cfg["allocation"]["t"]), int(cfg["N"]),
                                     int(cfg["ell"])))
        elif kind == "extractor":
            built.append(LeftoverHash(int(cfg["n"]), int(cfg["m"])))
        else:
            raise ValueError(f"unknown set-up kind {kind!r}")
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "built": len(built),
                      "module": minwise_lab.cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
