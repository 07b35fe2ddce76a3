"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quickstart'"
    exec(compile(match.group(1), f"{README}:quickstart", "exec"), {"__name__": "quickstart"})
