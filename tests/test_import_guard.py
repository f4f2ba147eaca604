"""Each subcommand imports only the modules it runs.

Without bytecode caches every imported module is compiled again on every
op, so ``generate random-metric``, ``traverse`` and ``tree`` must leave
``games``, ``simulator``, ``layered_ring`` and ``dataclasses`` (which pulls
in ``inspect``) unloaded.  The traced benchmark run imports only
``nntrav.cli`` and ``nntrav.games`` and then wraps every layer of its LAYERS
table, so that pair must still load all of them.

Both checks run in a fresh interpreter started with ``-S``, so modules that
site-packages hooks load do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

from helpers import traced_layers

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_BY_METRIC_OPS = ("nntrav.games", "nntrav.simulator", "nntrav.layered_ring", "dataclasses")


def _modules_after(code: str, cwd: Path) -> set[str]:
    """``sys.modules`` of a fresh interpreter once ``code`` has run in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + "\nimport sys\nprint(*sorted(sys.modules))"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_metric_subcommands_leave_the_other_layers_unloaded(tmp_path):
    ops = [
        ["generate", "random-metric", "--n", "12", "--output", "m.json"],
        ["traverse", "--input", "m.json", "--output", "t.json"],
        ["tree", "--input", "m.json", "--ranks", "shuffle", "--output", "r.json"],
    ]
    loaded = _modules_after(
        f"import nntrav.cli as cli\nfor argv in {ops!r}:\n    assert cli.main(argv) == 0, argv",
        tmp_path)
    assert {"nntrav.graph", "nntrav.nn", "nntrav.tree"} <= loaded
    assert not loaded & set(UNUSED_BY_METRIC_OPS)
    assert (tmp_path / "t.json").exists() and (tmp_path / "r.json").exists()


def test_cli_and_games_load_every_traced_layer(tmp_path):
    loaded = _modules_after("import nntrav.cli, nntrav.games", tmp_path)
    missing = [f"nntrav.{layer}" for layer in traced_layers()
               if f"nntrav.{layer}" not in loaded]
    assert not missing, f"the traced benchmark run would not find {missing}"
