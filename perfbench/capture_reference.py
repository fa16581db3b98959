"""Capture the oracle_suite_exact reference from the current checkout.

Usage: python3 perfbench/capture_reference.py

Runs every oracle command of the suite once (the extractor test once per
flat-source seed of the pool), requires each to exit 0, and writes the
reports to perfbench/reference/oracle_suite.json.  Rerun it only after a
deliberate change to an oracle's inputs or report values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def _report(sub: str, cfg: dict, report: str, work) -> dict:
    cfg_path = work / f"{sub}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / sub
    proc = subprocess.run(
        [sys.executable, "-m", "minwise_lab.cli", sub, "--config", str(cfg_path),
         "--out-dir", str(out)],
        capture_output=True, text=True, env=run._child_env(), cwd=run.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{sub} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads((out / report).read_text())


def main() -> int:
    run.preflight()
    work = run.OUT_ROOT / "capture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reports = {}
    for sub, cfg_name, report, _ in run.ORACLE_COMMANDS:
        if report == "extractor_report.json":
            reports[report] = {
                str(s): _report(sub, run.oracle_configs(s)[cfg_name], report, work)
                for s in range(run.FLAT_SEED_POOL)
            }
        else:
            reports[report] = _report(sub, run.oracle_configs(0)[cfg_name], report, work)
    run.ORACLE_REFERENCE.parent.mkdir(exist_ok=True)
    run.ORACLE_REFERENCE.write_text(json.dumps({
        "configs": run.oracle_configs(None),
        "exit_code": 0,
        "reports": reports,
    }, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)
    print(f"wrote {run.ORACLE_REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
