"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    match = re.search(r"## Library quick start\s+```python\n(.*?)```", README.read_text(), re.S)
    assert match is not None, "the README lost its quick-start block"
    scope = {}
    exec(compile(match.group(1), "README.md quick start", "exec"), scope)
    # the block's own comment: ES is not identified by a single C
    assert scope["rep"].consistent is False
