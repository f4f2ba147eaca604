"""Every function the benchmark's tracer wraps must still exist in nntrav.

The traced benchmark run looks these names up with ``getattr``; a rename in
``src/`` would break it outside the tier-1 suite, so the names are checked
here, read from ``perfbench/tracer.py`` without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _traced_layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_name_resolves():
    layers = _traced_layers()
    assert layers
    for layer, attrs in layers.items():
        module = importlib.import_module(f"nntrav.{layer}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                assert hasattr(owner, part), f"nntrav.{layer}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"nntrav.{layer}.{attr} is not callable"
