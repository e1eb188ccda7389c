"""The README's library quick start prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    expected = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) == block.count("print(")  # every print carries its output as a comment
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
