"""Every ``python`` block in README.md runs, and prints what it claims.

A ``print(...)`` line may end in a ``# expected output`` comment; the lines a
block prints must equal those comments, in order.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
_PRINT_COMMENT = re.compile(r"^\s*print\(.*\)\s*#\s*(.*?)\s*$")
BLOCKS = _BLOCK.findall(README.read_text(encoding="utf-8"))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_and_prints_its_comments(source):
    expected = [m.group(1) for m in map(_PRINT_COMMENT.match, source.splitlines()) if m]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
