"""The README's library quickstart runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the quickstart should hold one python block"
    return blocks[0]


def test_quickstart_runs(capsys):
    namespace = {}
    exec(compile(_quickstart(), str(README), "exec"), namespace)
    reports = namespace["reports"]
    assert len(reports) == 52 and all(r.error is None for r in reports)
    assert "LASSO-STAR" in capsys.readouterr().out
