"""``nntrav bench``: run a suite of rows into a CSV table."""

from __future__ import annotations

import argparse
import csv
import io
import random

from .cli_io import EXIT_OK, _read_json, _resolve_seed, _write_text, split_seed
from .graph import CostFunction, GraphError, random_metric_cost
from .nn import nn_traversal, nn_upper_bound, opt_traversal

BENCH_COLUMNS = ("family", "n", "m", "k", "agent", "adversary", "value", "bound", "ratio", "seed")
# kind -> (the keys a row must hold, the keys it may also hold)
BENCH_ROW_KEYS = {"lr-ratio": (("m", "k"), ()),
                  "duel": (("n", "agent", "adversary"), ("start", "budget")),
                  "random-metric": (("n",), ("start", "max_cost"))}


def _bench_row_kind(row: object, index: int) -> str:
    """The row's kind, once the row holds that kind's keys and integer counts."""
    if not isinstance(row, dict):
        raise GraphError(f"bench row {index} must be an object, got {row!r}")
    kind = row.get("kind")
    if not isinstance(kind, str) or kind not in BENCH_ROW_KEYS:
        raise GraphError(f"bench row {index} has unknown kind {kind!r}")
    needed, optional = BENCH_ROW_KEYS[kind]
    for key in needed:
        if key not in row:
            raise GraphError(f"bench {kind} row {index} needs {key!r}")
    for key in row:
        if key != "kind" and key not in needed and key not in optional:
            raise GraphError(f"bench {kind} row {index} has unknown key {key!r}")
    for key in ("n", "m", "k", "start", "budget", "max_cost"):
        if key in row and (not isinstance(row[key], int) or isinstance(row[key], bool)):
            raise GraphError(f"bench row {index}: {key!r} must be an integer, got {row[key]!r}")
    return kind


def _bench_row(row: object, index: int, seed: int) -> dict:
    kind = _bench_row_kind(row, index)
    out = dict.fromkeys(BENCH_COLUMNS, "")
    if kind == "lr-ratio":
        from .layered_ring import build_lr_pow2

        m, k = row["m"], row["k"]
        lr = build_lr_pow2(m, k)
        hop = CostFunction.hop_metric(lr.graph)
        value = sum(nn_traversal(hop, 0)[1])
        bound = lr.n - 1
        out.update(family="lr-pow2", n=lr.n, m=m, k=k,
                   value=value, bound=bound, ratio=f"{value}/{bound}")
    elif kind == "duel":
        from .games import arena, make_agent, play_game

        agent = make_agent(row["agent"])
        n = row["n"]
        spec = row["adversary"]
        graph, adv, bound = arena(spec, n)
        trace = play_game(agent, adv, graph, row.get("start", 0), row.get("budget"))
        out.update(family="duel", n=n, agent=row["agent"], adversary=spec,
                   value=trace.step_count, bound=bound,
                   ratio=f"{trace.step_count}/{bound}")
    else:  # random-metric
        n = row["n"]
        eff = split_seed(seed, f"bench/{index}/random-metric/{n}")
        cost = random_metric_cost(n, random.Random(eff), row.get("max_cost", 9))
        value = sum(nn_traversal(cost, row.get("start", 0))[1])
        opt, _ = opt_traversal(cost)
        out.update(family="random-metric", n=n, value=value,
                   bound=nn_upper_bound(n, opt), ratio=f"{value}/{opt}", seed=eff)
    return out


def run(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    suite = _read_json(args.suite)
    if not isinstance(suite, dict) or not isinstance(suite.get("rows"), list):
        raise GraphError('bench suite must be {"rows": [...]}')
    buf = io.StringIO()
    buf.write("# nntrav bench csv v1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for index, row in enumerate(suite["rows"]):
        result = _bench_row(row, index, seed)
        writer.writerow([result[col] for col in BENCH_COLUMNS])
    _write_text(args.output, buf.getvalue())
    return EXIT_OK
