"""Command-line front end: generate, traverse, simulate, duel, tree, bench.

Exit codes: 0 success, 2 validation failure, 3 budget exhausted, 4 I/O error.
All randomness flows from --seed (or the NNTRAV_SEED environment variable,
default 0); identical inputs and seed give byte-identical outputs.

Each subcommand's handler lives in its own ``cmd_<name>`` module, which
``main`` imports only when it dispatches there.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Sequence

from .cli_io import EXIT_IO, EXIT_VALIDATION, GENERATE_PARAMS
from .graph import GraphError

SUBCOMMANDS = {
    "generate": "emit an instance of a named family",
    "traverse": "greedy traversal with profile and bound report",
    "simulate": "run the round simulator under a failure schedule",
    "duel": "agent versus adversary on a graph",
    "tree": "rank-greedy spanning tree with MST bound report",
    "bench": "run a suite of rows into a CSV table",
}


def _add_options(p: argparse.ArgumentParser, cmd: str) -> None:
    if cmd == "generate":
        p.add_argument("family", choices=GENERATE_PARAMS)
        p.add_argument("--m", type=int, help="ring exponent (lr-pow2)")
        p.add_argument("--nu", type=int, help="ring size (lr-general, lr-padded)")
        p.add_argument("--k", type=int, help="layer count (lr families)")
        p.add_argument("--n", type=int, help="node count (most families)")
        p.add_argument("--max-cost", type=int, default=9, help="random-metric cost cap")
        p.add_argument("--seed", type=int)
        p.add_argument("--output")
        p.add_argument("--format", choices=("json", "dot"), default="json")
    elif cmd == "traverse":
        p.add_argument("--input", required=True)
        p.add_argument("--start", type=int, default=0)
        p.add_argument("--ties", default="lowest-id",
                       help="lowest-id, random, or scripted:FILE")
        p.add_argument("--seed", type=int)
        p.add_argument("--output")
    elif cmd == "simulate":
        p.add_argument("--input", required=True)
        p.add_argument("--start", type=int, default=0)
        p.add_argument("--schedule", help="failure schedule JSON")
        p.add_argument("--budget", type=int, help="override the 4n² iteration budget")
        p.add_argument("--output", help="trace JSONL path (summary then goes to stdout)")
    elif cmd == "duel":
        p.add_argument("agent", help="nn or dfs-restart")
        p.add_argument("adversary", help="none, clique, killer, or schedule:FILE")
        p.add_argument("--n", type=int, help="size for a generated arena")
        p.add_argument("--input", "--graph", dest="input", help="instance JSON to play on")
        p.add_argument("--start", type=int, default=0)
        p.add_argument("--budget", type=int, help="override the 8n² step budget")
        p.add_argument("--output", help="trace JSONL path (summary then goes to stdout)")
    elif cmd == "tree":
        p.add_argument("--input", required=True)
        p.add_argument("--ranks", choices=("identity", "shuffle"), default="identity")
        p.add_argument("--seed", type=int)
        p.add_argument("--output")
    else:  # bench
        p.add_argument("--suite", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--output")
        p.add_argument("--format", choices=("csv",), default="csv")


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every subcommand is registered with its help
    text, but only the first one ``argv`` names gets its options: argparse
    dispatches to that one and never parses another."""
    parser = argparse.ArgumentParser(
        prog="nntrav",
        description="Greedy graph traversal worst cases, failure-round simulation, "
                    "edge-deletion games, and rank-greedy trees.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    named = next((arg for arg in argv if arg in SUBCOMMANDS), None)
    for cmd, text in SUBCOMMANDS.items():
        p = sub.add_parser(cmd, help=text)
        if cmd == named:
            _add_options(p, cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return import_module(f"nntrav.cmd_{args.cmd}").run(args)
    except GraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OverflowError, MemoryError) as err:
        print(f"error: size too large for this machine ({type(err).__name__})", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
