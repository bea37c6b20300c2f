"""The README's library quick start runs as written, so an API change cannot
leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "expected one python block, the quick start"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})
