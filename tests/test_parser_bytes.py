"""The argument parser's bytes: help texts and usage errors, byte for byte.

Each case runs ``nntrav.cli.main`` in-process at ``COLUMNS=80`` and compares
its stdout, stderr and exit code with ``parser_bytes.json``.  argparse ends
these runs with ``SystemExit``, which the golden runner does not catch, so
they live here.

After a deliberate change to the parser's output, re-record with

    PYTHONPATH=src python tests/test_parser_bytes.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from nntrav.cli import main

EXPECTED = Path(__file__).with_name("parser_bytes.json")

CASES: dict[str, list[str]] = {
    "help": ["--help"],
    **{f"{cmd}-help": [cmd, "--help"]
       for cmd in ("generate", "traverse", "simulate", "duel", "tree", "bench")},
    "tree-short-help": ["tree", "-h"],
    "no-subcommand": [],
    "unknown-subcommand": ["bogus"],
    "unknown-subcommand-then-known": ["bogus", "traverse", "--input", "x.json"],
    "generate-missing-family": ["generate"],
    "generate-unknown-family": ["generate", "bogus"],
    "generate-bad-int": ["generate", "path", "--n", "x"],
    "traverse-missing-input": ["traverse"],
    "simulate-missing-input": ["simulate", "--start", "1"],
    "duel-missing-adversary": ["duel", "nn"],
    "tree-missing-input": ["tree", "--ranks", "shuffle"],
    "tree-bad-choice": ["tree", "--input", "x.json", "--ranks", "bogus"],
    "bench-missing-suite": ["bench"],
    "traverse-unknown-option": ["traverse", "--input", "x.json", "--bogus"],
    "unknown-option-before-subcommand": ["--bogus", "traverse", "--input", "x.json"],
    "generate-option-of-another-subcommand": ["generate", "path", "--n", "3", "--suite", "s"],
}


def run_case(argv: list[str]) -> dict:
    """stdout, stderr and exit code of ``nntrav <argv>``, which must end in
    argparse's ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(list(argv))
    return {"code": exc.value.code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_bytes(name):
    assert run_case(CASES[name]) == json.loads(EXPECTED.read_text(encoding="utf-8"))[name]


def test_every_case_is_recorded():
    assert sorted(json.loads(EXPECTED.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_parser_bytes.py --record")
    recorded = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
