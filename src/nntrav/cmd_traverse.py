"""``nntrav traverse``: the greedy walk with its λ-profile and bound report."""

from __future__ import annotations

import argparse
import random

from .cli_io import EXIT_OK, _load_instance, _read_json, _resolve_seed, _sidecar, _write_json
from .graph import CostFunction, GraphError, cost_of
from .nn import (
    OPT_ORACLE_LIMIT,
    aspect_ratio_bound,
    lambda_profile,
    nn_traversal,
    nn_upper_bound,
    opt_traversal,
    scripted,
)


def _parse_ties(spec: str, seed: int):
    """The tie-break ``nn_traversal`` takes: None for lowest id, else a
    ``choose(tied) -> int`` function."""
    if spec == "lowest-id":
        return None
    if spec == "random":
        return random.Random(seed).choice
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        obj = _read_json(path)
        if isinstance(obj, dict):
            obj = obj.get("preference", obj.get("scripted_ties"))
        # bools and floats would pass as ids: True == 1 and 1.0 == 1
        if not isinstance(obj, list) or not {int}.issuperset(map(type, obj)):
            raise GraphError(
                f"scripted ties file {path!r} must hold a list of node ids "
                '(or {"preference": [...]} / {"scripted_ties": [...]})')
        return scripted(obj)
    raise GraphError(f"unknown tie policy {spec!r}")


def _certified_opt(cost: CostFunction, sidecar: dict) -> int | None:
    """A full route measured at cost n − 1 pins the optimal cost there.

    Only hop metrics qualify: there no step costs less than 1.  Any other
    certificate, or a route that is not one, is ignored, never an error.
    """
    routes = sidecar.get("routes")
    route = routes.get("hamiltonian") if isinstance(routes, dict) else None
    if cost.kind != "hop" or not isinstance(route, list) or not {int}.issuperset(map(type, route)):
        return None
    try:
        return cost.n - 1 if cost_of(route, cost) == cost.n - 1 else None
    except GraphError:
        return None


def run(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    _, cost, obj = _load_instance(args.input)
    sidecar = _sidecar(args.input, obj)
    ties = _parse_ties(args.ties, seed)
    order, steps = nn_traversal(cost, args.start, ties)
    profile = lambda_profile(steps)
    total = sum(steps)
    violation = cost.triangle_violation()
    metric = violation is None

    opt = None
    opt_source = None
    if cost.n <= OPT_ORACLE_LIMIT:
        opt, _ = opt_traversal(cost)
        opt_source = "oracle"
    else:
        certified = _certified_opt(cost, sidecar)
        if certified is not None:
            opt = certified
            opt_source = "certificate"

    report = {
        "n": cost.n,
        "start": args.start,
        "ties": args.ties,
        "order": order,
        "cost": total,
        "lambda": {str(j): k for j, k in profile.items()},
        "metric": metric,
        "triangle_violation": list(violation) if violation else None,
        "opt": opt,
        "opt_source": opt_source,
        "ratio": f"{total}/{opt}" if opt else None,
        "nn_bound": None,
        "within_nn_bound": None,
        "aspect_bound": None,
        "within_aspect_bound": None,
    }
    if opt is not None and cost.n >= 2:
        bound = nn_upper_bound(cost.n, opt)
        report["nn_bound"] = bound
        report["within_nn_bound"] = total <= bound
        lo, hi = cost.pair_cost_extremes()
        if lo > 0:
            # computed even when the triangle inequality fails; the metric flag
            # and violation triple say whether the bound is actually claimed
            abound = aspect_ratio_bound(opt, lo, hi)
            report["aspect_bound"] = abound
            report["within_aspect_bound"] = total <= abound
    _write_json(args.output, report)
    return EXIT_OK
