"""Each subcommand imports only the modules it runs.

Without bytecode caches every imported module is compiled again on every
op, so ``generate random-metric``, ``traverse`` and ``tree`` must leave
``games``, ``simulator``, ``layered_ring``, ``dataclasses`` and ``inspect``
unloaded.  The hop ops (``simulate``, ``duel``, ``bench`` and the ring and
trap ``generate`` families) load the layers they run, but their records are
plain classes, so they too leave ``dataclasses`` and ``inspect`` unloaded.
Each subcommand's handler is its own ``nntrav.cmd_<name>`` module, and an
op loads that one and no other.  Under ``python -m nntrav.cli`` the core
runs as ``__main__``, so no op may import ``nntrav.cli`` by name: that would
compile the core a second time.
The traced benchmark run imports only ``nntrav.cli`` and ``nntrav.games`` and
then wraps every layer of its LAYERS table, so that pair must still load all
of them.

Every check runs in a fresh interpreter started with ``-S``, so modules that
site-packages hooks load do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import SRC, op_modules, traced_layers

UNUSED_BY_ANY_OP = ("dataclasses", "inspect")
UNUSED_BY_METRIC_OPS = ("nntrav.games", "nntrav.simulator", "nntrav.layered_ring",
                        *UNUSED_BY_ANY_OP)


def _modules_after(code: str, cwd: Path) -> set[str]:
    """``sys.modules`` of a fresh interpreter once ``code`` has run in ``cwd``
    (read from the last line of its stdout, after any op's own output)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + "\nimport sys\nprint(*sorted(sys.modules))"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


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


def test_hop_subcommands_leave_dataclasses_unloaded(tmp_path):
    (tmp_path / "s.json").write_text('{"deletions": [{"iter": 1, "edges": [[1, 2]]}]}')
    (tmp_path / "b.json").write_text(
        '{"rows": [{"kind": "lr-ratio", "m": 3, "k": 1}, {"kind": "duel",'
        ' "n": 6, "agent": "nn", "adversary": "clique"}]}')
    ops = [
        ["generate", "path", "--n", "6", "--output", "p.json"],
        ["generate", "lr-pow2", "--m", "3", "--k", "2", "--output", "l.json"],
        ["generate", "lr-padded", "--nu", "8", "--k", "2", "--n", "23", "--output", "lp.json"],
        ["generate", "dfs-killer", "--n", "12", "--output", "k.json"],
        ["simulate", "--input", "p.json", "--schedule", "s.json", "--output", "sim.jsonl"],
        ["duel", "nn", "clique", "--n", "6", "--output", "d1.jsonl"],
        ["duel", "dfs-restart", "killer", "--n", "12", "--output", "d2.jsonl"],
        ["duel", "nn", "schedule:s.json", "--input", "p.json", "--output", "d3.jsonl"],
        ["bench", "--suite", "b.json", "--output", "b.csv"],
    ]
    loaded = _modules_after(
        f"import nntrav.cli as cli\nfor argv in {ops!r}:\n    assert cli.main(argv) == 0, argv",
        tmp_path)
    assert {"nntrav.games", "nntrav.simulator", "nntrav.layered_ring"} <= loaded
    assert not loaded & set(UNUSED_BY_ANY_OP)
    assert all((tmp_path / f).exists()
               for f in ("sim.jsonl", "d1.jsonl", "d2.jsonl", "d3.jsonl", "b.csv"))


def test_cli_and_games_load_every_traced_layer(tmp_path):
    loaded = _modules_after("import nntrav.cli, nntrav.games", tmp_path)
    missing = [f"nntrav.{layer}" for layer in traced_layers()
               if f"nntrav.{layer}" not in loaded]
    assert not missing, f"the traced benchmark run would not find {missing}"


# every subcommand, and each generate family and duel arena that loads more
OPS = [
    ["generate", "random-metric", "--n", "12", "--output", "m.json"],
    ["generate", "path", "--n", "6", "--output", "p.json"],
    ["generate", "lr-pow2", "--m", "3", "--k", "2", "--output", "l.json"],
    ["generate", "dfs-killer", "--n", "12", "--output", "k.json"],
    ["traverse", "--input", "m.json", "--output", "t.json"],
    ["traverse", "--input", "l.json", "--ties", "scripted:l.sidecar.json", "--output", "t2.json"],
    ["tree", "--input", "m.json", "--ranks", "shuffle", "--output", "r.json"],
    ["simulate", "--input", "p.json", "--schedule", "s.json", "--output", "sim.jsonl"],
    ["duel", "nn", "clique", "--n", "6", "--output", "d1.jsonl"],
    ["duel", "dfs-restart", "killer", "--input", "k.json", "--output", "d2.jsonl"],
    ["duel", "nn", "schedule:s.json", "--input", "p.json", "--output", "d3.jsonl"],
    ["bench", "--suite", "b.json", "--output", "b.csv"],
]


@pytest.fixture(scope="module")
def loaded_by_op(tmp_path_factory) -> dict[str, dict[str, int]]:
    """``op_modules`` of every op in OPS, run in order in one directory."""
    work = tmp_path_factory.mktemp("ops")
    (work / "s.json").write_text('{"deletions": [{"iter": 1, "edges": [[1, 2]]}]}')
    (work / "b.json").write_text(
        '{"rows": [{"kind": "lr-ratio", "m": 3, "k": 1}, {"kind": "duel", "n": 6,'
        ' "agent": "nn", "adversary": "clique"}, {"kind": "random-metric", "n": 5}]}')
    return {" ".join(argv): op_modules(argv, work) for argv in OPS}


def test_each_subcommand_loads_only_its_own_handler(loaded_by_op):
    for op, loaded in loaded_by_op.items():
        handlers = {name for name in loaded if name.startswith("nntrav.cmd_")}
        assert handlers == {f"nntrav.cmd_{op.split()[0]}"}, op


def test_the_core_is_compiled_once_per_op(loaded_by_op):
    for op, loaded in loaded_by_op.items():
        assert "__main__" in loaded and "nntrav.cli" not in loaded, op
