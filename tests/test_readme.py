"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_it_says():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    cost, profile = out.getvalue().splitlines()
    assert cost == "50"
    assert profile == "{1: 34, 2: 6, 3: 3, 4: 3, 5: 1, 6: 1, 7: 1, 8: 1}"
