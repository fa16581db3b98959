"""README's python examples and CLI lines run as written, so a signature
change or a removed flag cannot leave them stale."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from minwise_lab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("minwise-lab ")]
    assert len(lines) >= 8
    # config paths are written from the repository root
    monkeypatch.chdir(README.parent)
    for i, line in enumerate(lines):
        argv = shlex.split(line, comments=True)[1:]
        if "--out-dir" in argv:
            argv[argv.index("--out-dir") + 1] = str(tmp_path / str(i))
        assert main(argv) == 0, line
    # the tail-estimate table among them writes its report
    assert "kwise-test: PASS" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*/kwise_report.json"))) == 1
