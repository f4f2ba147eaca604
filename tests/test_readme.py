"""The README's library example runs as printed, and its test count is the suite's."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_prints_what_it_says():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    cost, profile = out.getvalue().splitlines()
    assert cost == "50"
    assert profile == "{1: 34, 2: 6, 3: 3, 4: 3, 5: 1, 6: 1, 7: 1, 8: 1}"


def test_test_count_is_what_pytest_collects():
    (stated,) = re.findall(r"(\d+) tests:", README.read_text(encoding="utf-8"))
    collect = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
    out = subprocess.run(collect, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    (collected,) = re.findall(r"^(\d+) tests collected", out, re.M)
    assert stated == collected
