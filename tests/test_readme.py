"""README's python examples run as written, so a signature change cannot
leave them stale."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    # the tail-estimate example writes its report under a relative out/
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert "kwise-test: PASS" in capsys.readouterr().out
    assert (tmp_path / "out" / "kwise" / "kwise_report.json").is_file()
