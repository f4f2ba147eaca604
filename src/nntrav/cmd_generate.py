"""``nntrav generate``: emit an instance of a named family, with its sidecar."""

from __future__ import annotations

import argparse
import random

from .cli_io import (
    EXIT_OK,
    GENERATE_PARAMS,
    _resolve_seed,
    _sidecar_path,
    _write_json,
    _write_text,
    split_seed,
)
from .graph import (
    GraphError,
    complete_graph,
    graph_to_dot,
    instance_to_json_obj,
    path_graph,
    random_metric_cost,
)


def run(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    family = args.family
    params = {name: getattr(args, name) for name in GENERATE_PARAMS[family]}
    for name, val in params.items():
        if val is None:
            raise GraphError(f"generate {family} requires --{name.replace('_', '-')}")
    n = params.get("n")
    cost = None
    if family in ("lr-pow2", "lr-general"):
        from .layered_ring import build_lr, build_lr_pow2, canonical_nn_route, hamiltonian_route

        k = params["k"]
        lr = build_lr_pow2(params["m"], k) if family == "lr-pow2" else build_lr(params["nu"], k)
        graph = lr.graph
        nn_route = canonical_nn_route(lr)
        sidecar = {
            "nu": lr.nu,
            "k": k,
            "positions": list(lr.positions),
            "layer_ids": {str(i): list(ids) for i, ids in lr.layer_ids.items()},
            "layer_positions": {str(i): list(lr.layer_sets[i - 1]) for i in range(1, k + 1)},
            "routes": {"nn": nn_route, "hamiltonian": hamiltonian_route(lr)},
            "costs": {"nn": lr.nn_cost, "opt": lr.n - 1},
            "scripted_ties": nn_route,
        }
    elif family == "lr-padded":
        from .layered_ring import pad_to_n

        pr = pad_to_n(params["nu"], params["k"], n)
        graph = pr.graph
        sidecar = {
            "nu": pr.base.nu,
            "k": pr.base.k,
            "base_n": pr.base.n,
            "extras": list(pr.extras),
            "routes": {"nn": pr.nn_route, "hamiltonian": pr.hamiltonian},
            "costs": {"nn": len(pr.extras) + pr.base.nn_cost, "opt": n - 1},
            "scripted_ties": pr.nn_route,
        }
    elif family == "dfs-killer":
        from .games import killer_script
        from .layered_ring import build_dfs_killer

        trap = build_dfs_killer(n)
        graph = trap.graph
        sidecar = {
            "clique_a": list(trap.clique_a),
            "clique_b": list(trap.clique_b),
            "path_nodes": list(trap.path_nodes),
            "tree_edges": [list(e) for e in sorted(trap.tree_edges)],
            "rule": trap.rule,
            "script": killer_script(trap).to_json_obj(),
        }
    elif family in ("complete", "path"):
        graph = complete_graph(n) if family == "complete" else path_graph(n)
        order = list(range(n))
        sidecar = {"routes": {"nn": order, "hamiltonian": order}, "scripted_ties": order}
    else:  # random-metric
        eff = split_seed(seed, f"random-metric/{n}")
        cost = random_metric_cost(n, random.Random(eff), args.max_cost)
        graph = complete_graph(n)
        sidecar = {"seed": seed, "derived_seed": eff}

    if args.format == "dot":
        _write_text(args.output, graph_to_dot(graph))
        return EXIT_OK
    doc = instance_to_json_obj(graph, cost)
    doc["family"] = family
    doc["params"] = params
    if args.output:
        _write_json(args.output, doc)
        _write_json(str(_sidecar_path(args.output)), sidecar)
    else:
        doc["sidecar"] = sidecar
        _write_json(None, doc)
    return EXIT_OK
