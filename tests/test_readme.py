"""The README's library quick start runs and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The python block under the "Library quick start" heading."""
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "U([-1],[0])",
        "(L([1],[3]), L([3],[1]))",
        "PEA.i holds 5832",
        "PEA.ii holds 18",
        "PEA.iii holds 153",
        "PEA.iv holds 18",
    ]
