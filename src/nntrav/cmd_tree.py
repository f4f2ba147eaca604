"""``nntrav tree``: the rank-greedy spanning tree with its MST bound report."""

from __future__ import annotations

import argparse
import random

from .cli_io import EXIT_OK, _load_instance, _resolve_seed, _write_json, split_seed
from .tree import mst_cost, nn_tree, nnt_bound_check, shuffled_ranks


def run(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    graph, cost, _ = _load_instance(args.input)
    if args.ranks == "identity":
        ranks = list(range(cost.n))
    else:
        ranks = shuffled_ranks(cost.n, random.Random(split_seed(seed, "ranks")))
    mat = cost.as_matrix()
    tree = nn_tree(mat, ranks)
    mst, mst_edges = mst_cost(mat)
    metric = cost.triangle_violation() is None
    report = {
        "n": cost.n,
        "ranks": ranks,
        "root": tree.root,
        "edges": [[u, v, tree.costs[(u, v)]] for u, v in tree.edges],
        "total": tree.total,
        "mst": mst,
        "mst_edges": mst_edges,
        "metric": metric,
        "budget": None,
        "bound_ok": None,
    }
    if metric:
        report["budget"], report["bound_ok"] = nnt_bound_check(cost.n, tree.total, mst)
    _write_json(args.output, report)
    return EXIT_OK
