"""Every function the benchmark's tracer wraps must still exist in nntrav.

The traced benchmark run looks these names up with ``getattr``; a rename in
``src/`` would break it outside the tier-1 suite, so the names are checked
here, read from ``perfbench/tracer.py`` without importing it.
"""

import importlib

from helpers import traced_layers


def test_every_traced_name_resolves():
    layers = traced_layers()
    assert layers
    for layer, attrs in layers.items():
        module = importlib.import_module(f"nntrav.{layer}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                assert hasattr(owner, part), f"nntrav.{layer}.{attr} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"nntrav.{layer}.{attr} is not callable"
