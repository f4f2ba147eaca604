"""Golden corpus: every subcommand and mode on small inputs, compared byte for byte.

The inputs live in ``tests/golden/inputs`` and the expected stdout, stderr,
trace-file bytes and exit codes in ``tests/golden/expected``.  Each case runs
``nntrav.cli.main`` in-process with the inputs directory as working
directory, so relative paths in argv (which some reports echo) stay stable.

After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from nntrav.cli import main

GOLDEN = Path(__file__).with_name("golden")
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
TRACE = "{trace}"  # replaced by a fresh file path; its bytes are compared too

CASES: dict[str, list[str]] = {
    "generate-lr-pow2": ["generate", "lr-pow2", "--m", "3", "--k", "2", "--seed", "0"],
    "generate-lr-general": ["generate", "lr-general", "--nu", "7", "--k", "2", "--seed", "0"],
    "generate-lr-padded": ["generate", "lr-padded", "--nu", "8", "--k", "2", "--n", "25",
                           "--seed", "0"],
    "generate-dfs-killer": ["generate", "dfs-killer", "--n", "12", "--seed", "0"],
    "generate-complete": ["generate", "complete", "--n", "4", "--seed", "0"],
    "generate-path": ["generate", "path", "--n", "4", "--seed", "0"],
    "generate-random-metric": ["generate", "random-metric", "--n", "6", "--seed", "3"],
    "generate-random-metric-wide": ["generate", "random-metric", "--n", "9", "--max-cost",
                                    "1000", "--seed", "4"],
    "generate-dot": ["generate", "lr-pow2", "--m", "2", "--k", "1", "--format", "dot",
                     "--seed", "0"],
    "traverse-lowest-id": ["traverse", "--input", "ring.json", "--seed", "0"],
    "traverse-random": ["traverse", "--input", "ring.json", "--ties", "random",
                        "--start", "3", "--seed", "11"],
    "traverse-scripted": ["traverse", "--input", "ring.json",
                          "--ties", "scripted:ring.sidecar.json", "--seed", "0"],
    "traverse-oracle-hop": ["traverse", "--input", "small-ring.json", "--seed", "0"],
    "traverse-oracle-metric": ["traverse", "--input", "metric.json", "--start", "2",
                               "--seed", "0"],
    "traverse-disconnected": ["traverse", "--input", "disconnected.json", "--seed", "0"],
    "traverse-zero-pair": ["traverse", "--input", "zero-pair.json", "--seed", "0"],
    "traverse-non-metric": ["traverse", "--input", "four-point.json", "--start", "3",
                            "--seed", "0"],
    "simulate-schedule": ["simulate", "--input", "ring.json", "--schedule", "sched.json",
                          "--output", TRACE],
    "simulate-no-output": ["simulate", "--input", "ring.json", "--schedule", "sched.json"],
    "duel-clique": ["duel", "nn", "clique", "--n", "6", "--output", TRACE],
    "duel-clique-budget": ["duel", "nn", "clique", "--n", "6", "--budget", "2",
                           "--output", TRACE],
    "duel-killer": ["duel", "dfs-restart", "killer", "--n", "12", "--output", TRACE],
    "duel-killer-input": ["duel", "dfs-restart", "killer", "--input", "killer.json",
                          "--budget", "6912", "--output", TRACE],
    "duel-clique-input": ["duel", "nn", "clique", "--input", "complete6.json",
                          "--output", TRACE],
    "duel-none": ["duel", "dfs-restart", "none", "--n", "5"],
    "duel-schedule": ["duel", "nn", "schedule:sched.json", "--input", "ring.json",
                      "--output", TRACE],
    "tree-identity": ["tree", "--input", "metric.json", "--ranks", "identity", "--seed", "0"],
    "tree-shuffle": ["tree", "--input", "ring.json", "--ranks", "shuffle", "--seed", "7"],
    "tree-non-metric": ["tree", "--input", "four-point.json", "--seed", "0"],
    "tree-shuffle-metric": ["tree", "--input", "metric.json", "--ranks", "shuffle",
                            "--seed", "7"],
    "bench": ["bench", "--suite", "suite.json", "--seed", "5"],
}


def run_case(argv: list[str]) -> dict[str, object]:
    """Exit code plus stdout, stderr and trace-file text of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.jsonl"
        args = [str(trace) if a == TRACE else a for a in argv]
        os.chdir(INPUTS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(args)
        finally:
            os.chdir(here)
        text = trace.read_text(encoding="utf-8") if trace.exists() else ""
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "trace": text}


def _expected(name: str, stream: str) -> str:
    path = EXPECTED / f"{name}.{stream}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, monkeypatch):
    monkeypatch.delenv("NNTRAV_SEED", raising=False)
    got = run_case(CASES[name])
    codes = json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))
    assert got["rc"] == codes[name]
    for stream in ("stdout", "stderr", "trace"):
        assert got[stream] == _expected(name, stream), f"{name}: {stream} differs"


def record() -> None:
    """Rewrite every expected file from the current code."""
    os.environ.pop("NNTRAV_SEED", None)
    EXPECTED.mkdir(exist_ok=True)
    for old in EXPECTED.iterdir():
        old.unlink()
    codes = {}
    for name in sorted(CASES):
        got = run_case(CASES[name])
        codes[name] = got["rc"]
        for stream in ("stdout", "stderr", "trace"):
            if got[stream]:
                (EXPECTED / f"{name}.{stream}").write_text(got[stream], encoding="utf-8")
    (EXPECTED / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
