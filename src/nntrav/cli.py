"""Command-line front end: generate, traverse, simulate, duel, tree, bench.

Exit codes: 0 success, 2 validation failure, 3 budget exhausted, 4 I/O error.
All randomness flows from --seed (or the NNTRAV_SEED environment variable,
default 0); identical inputs and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

# games, simulator and layered_ring are imported only by the subcommands and
# generate families that run them.  graph, nn and tree stay here: most
# subcommands use them, and perfbench's tracer finds every layer loaded once
# nntrav.cli and nntrav.games (which loads the other three) are imported.
from .graph import (
    Graph,
    GraphError,
    complete_graph,
    cost_of,
    CostFunction,
    graph_to_dot,
    instance_from_json_obj,
    instance_to_json_obj,
    path_graph,
    random_metric_cost,
    validate_traversal,
)
from .nn import (
    OPT_ORACLE_LIMIT,
    aspect_ratio_bound,
    lambda_profile,
    nn_traversal,
    nn_upper_bound,
    opt_traversal,
    scripted,
)
from .tree import mst_cost, nn_tree, nnt_bound_check, shuffled_ranks

if TYPE_CHECKING:
    from .games import Adversary

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4

GENERATE_FAMILIES = (
    "lr-pow2", "lr-general", "lr-padded", "dfs-killer", "complete", "path", "random-metric",
)


def split_seed(seed: int, tag: str) -> int:
    """Derive an independent child seed; stable across runs and platforms."""
    import hashlib

    digest = hashlib.sha256(f"{seed}/{tag}".encode()).hexdigest()
    return int(digest[:16], 16)


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("NNTRAV_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GraphError(f"NNTRAV_SEED must be an integer, got {env!r}") from None
    return 0


_BLOCK_ROWS = 256  # rows per compact block: bounds the text held at once
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _write_json(path: str | None, obj: object) -> None:
    """``obj`` as sorted, 2-space indented JSON plus a newline, to ``path`` or
    stdout: the bytes of ``json.dump(obj, fh, indent=2, sort_keys=True)``,
    written piece by piece rather than built as one string."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        _dump_json(obj, fh.write, "\n")
        fh.write("\n")


def _dump_json(obj: object, write, nl: str) -> None:
    """Write ``obj`` as ``json.dump(indent=2, sort_keys=True)`` does at the
    depth whose line break and indent are ``nl``.

    A list of nonempty int lists (edges, weight triples) goes through json's
    C encoder in compact blocks of _BLOCK_ROWS rows, re-indented by
    ``str.replace``: its text holds no strings, so every comma and bracket is
    structure.  json's indenting encoder is pure Python and visits every int
    one call at a time.
    """
    if type(obj) is str:
        write(encode_basestring_ascii(obj))
        return
    if type(obj) is int:
        write(repr(obj))
        return
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key, value in sorted(obj.items()):
            # json writes a non-string key as the text of its value, quoted
            key = key if isinstance(key, str) else json.dumps(key)
            write(sep + inner + encode_basestring_ascii(key) + ": ")
            _dump_json(value, write, inner)
            sep = ","
        write(nl + "}")
        return
    if not isinstance(obj, (list, tuple)) or not obj:  # bools, None, floats, {}, []
        write(json.dumps(obj))
        return
    if not ({list}.issuperset(map(type, obj)) and all(obj)
            and {int}.issuperset(map(type, chain.from_iterable(obj)))):
        sep = "["
        for item in obj:
            write(sep + inner)
            _dump_json(item, write, inner)
            sep = ","
        write(nl + "]")
        return
    deep = inner + "  "
    for start in range(0, len(obj), _BLOCK_ROWS):
        # [[1,2],[3]] -> [<deep>1,<deep>2<inner>],<inner>[<deep>3<inner>]
        text = _compact(obj[start:start + _BLOCK_ROWS])[2:-2].replace(",", "," + deep)
        text = text.replace("]," + deep + "[", inner + "]," + inner + "[" + deep)
        write(("," if start else "[") + inner + "[" + deep + text + inner + "]")
    write(nl + "]")


def _read_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _sidecar_path(output: str) -> Path:
    p = Path(output)
    return p.with_name(p.stem + ".sidecar.json")


def _load_instance(path: str) -> tuple[Graph, CostFunction, dict]:
    """Read an instance file; returns graph, cost function, and the parsed JSON."""
    obj = _read_json(path)
    graph, cost = instance_from_json_obj(obj)
    if cost is None:
        cost = CostFunction.hop_metric(graph)
    return graph, cost, obj


def _sidecar(path: str, obj: dict) -> dict:
    """The instance's embedded "sidecar" key, else a neighboring
    <stem>.sidecar.json file, else an empty dict."""
    sidecar = obj.get("sidecar")
    if sidecar is None:
        side_path = _sidecar_path(path)
        if side_path.exists():
            sidecar = _read_json(str(side_path))
    return sidecar if isinstance(sidecar, dict) else {}


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


# --- generate ----------------------------------------------------------------


def _lr_sidecar(lr) -> dict:
    from .layered_ring import canonical_nn_route, hamiltonian_route

    return {
        "nu": lr.nu,
        "k": lr.k,
        "positions": list(lr.positions),
        "layer_ids": {str(i): list(ids) for i, ids in lr.layer_ids.items()},
        "layer_positions": {
            str(i): list(lr.layer_sets[i - 1]) for i in range(1, lr.k + 1)
        },
        "routes": {"nn": canonical_nn_route(lr), "hamiltonian": hamiltonian_route(lr)},
        "costs": {"nn": lr.nn_cost, "opt": lr.n - 1},
        "scripted_ties": canonical_nn_route(lr),
    }


def _require(args: argparse.Namespace, family: str, *names: str) -> list[int]:
    values = []
    for name in names:
        val = getattr(args, name.replace("-", "_"))
        if val is None:
            raise GraphError(f"generate {family} requires --{name}")
        values.append(val)
    return values


def _build_lr_pow2(m: int, k: int):
    """The layered ring of size 2**m with k layers."""
    from .layered_ring import build_lr

    if m < 1:
        raise GraphError(f"need m >= 1, got {m}")
    return build_lr(1 << m, k)


def cmd_generate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    family = args.family
    cost = None
    params: dict = {}
    if family == "lr-pow2":
        m, k = _require(args, family, "m", "k")
        lr = _build_lr_pow2(m, k)
        graph, sidecar, params = lr.graph, _lr_sidecar(lr), {"m": m, "k": k}
    elif family == "lr-general":
        from .layered_ring import build_lr

        nu, k = _require(args, family, "nu", "k")
        lr = build_lr(nu, k)
        graph, sidecar, params = lr.graph, _lr_sidecar(lr), {"nu": nu, "k": k}
    elif family == "lr-padded":
        from .layered_ring import pad_to_n

        nu, k, n = _require(args, family, "nu", "k", "n")
        pr = pad_to_n(nu, k, n)
        graph = pr.graph
        params = {"nu": nu, "k": k, "n": n}
        sidecar = {
            "nu": nu,
            "k": k,
            "base_n": pr.base.n,
            "extras": list(pr.extras),
            "routes": {"nn": pr.nn_route, "hamiltonian": pr.hamiltonian},
            "costs": {"nn": len(pr.extras) + pr.base.nn_cost, "opt": graph.n - 1},
            "scripted_ties": pr.nn_route,
        }
    elif family == "dfs-killer":
        from .games import killer_script
        from .layered_ring import build_dfs_killer

        (n,) = _require(args, family, "n")
        trap = build_dfs_killer(n)
        graph = trap.graph
        params = {"n": n}
        sidecar = {
            "clique_a": list(trap.clique_a),
            "clique_b": list(trap.clique_b),
            "path_nodes": list(trap.path_nodes),
            "tree_edges": [list(e) for e in sorted(trap.tree_edges)],
            "rule": trap.rule,
            "script": killer_script(trap).to_json_obj(),
        }
    elif family == "complete":
        (n,) = _require(args, family, "n")
        graph = complete_graph(n)
        params = {"n": n}
        order = list(range(n))
        sidecar = {"routes": {"nn": order, "hamiltonian": order}, "scripted_ties": order}
    elif family == "path":
        (n,) = _require(args, family, "n")
        graph = path_graph(n)
        params = {"n": n}
        order = list(range(n))
        sidecar = {"routes": {"nn": order, "hamiltonian": order}, "scripted_ties": order}
    else:  # random-metric
        (n,) = _require(args, family, "n")
        eff = split_seed(seed, f"random-metric/{n}")
        cost = random_metric_cost(n, random.Random(eff), args.max_cost)
        graph = complete_graph(n)
        params = {"n": n, "max_cost": args.max_cost}
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


# --- traverse ----------------------------------------------------------------


def _certified_opt(graph: Graph, cost: CostFunction, sidecar: dict) -> int | None:
    """A verified adjacency-only full route pins the optimal cost at n − 1.

    Only hop metrics qualify: there every edge costs 1 and no step costs less.
    A certificate of any other shape is ignored, never an error.
    """
    routes = sidecar.get("routes")
    route = routes.get("hamiltonian") if isinstance(routes, dict) else None
    if cost.kind != "hop" or not isinstance(route, list) or not {int}.issuperset(map(type, route)):
        return None
    try:
        validate_traversal(route, graph.n)
    except GraphError:
        return None
    if all(graph.has_edge(route[i], route[i + 1]) for i in range(len(route) - 1)):
        return graph.n - 1
    return None


def cmd_traverse(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    graph, cost, obj = _load_instance(args.input)
    sidecar = _sidecar(args.input, obj)
    ties = _parse_ties(args.ties, seed)
    order = nn_traversal(cost, args.start, ties)
    profile = lambda_profile(order, cost)
    total = sum(profile.values())
    violation = cost.triangle_violation()
    metric = violation is None

    opt = None
    opt_source = None
    if cost.n <= OPT_ORACLE_LIMIT:
        opt, _ = opt_traversal(cost)
        opt_source = "oracle"
    else:
        certified = _certified_opt(graph, cost, sidecar)
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


# --- simulate ----------------------------------------------------------------


@contextlib.contextmanager
def _trace_output(output: str | None):
    """Yield ``write`` for a run's trace lines, each with its newline.

    The lines stream to a sibling temporary file that replaces ``output``
    (the file a symlink names) when the block succeeds, or without
    ``output`` to a temporary file that is then copied to stdout.  A run that
    fails leaves ``output`` as it was and prints nothing, and no trace is
    ever held in memory whole.  An ``output`` that exists but is no regular
    file, such as a pipe or ``/dev/stdout``, cannot be replaced and is
    written in place.
    """
    if output is None:
        import shutil
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
            yield fh.write
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
        return
    if os.path.exists(output) and not os.path.isfile(output):
        with open(output, "w", encoding="utf-8") as fh:
            yield fh.write
        return
    target = os.path.realpath(output)
    part = f"{target}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            yield fh.write
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _trace_result(trace, summary: dict | None) -> int:
    """Print ``summary`` (the stdout report of a run with a trace file), once
    the trace is in place, and return the run's exit code."""
    if summary is not None:
        _write_json(None, summary)
    return EXIT_BUDGET if trace.outcome == "budget-exhausted" else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import (
        FailureSchedule, check_progress, check_r1_r2, encode_line, run_sim)

    graph, cost, _ = _load_instance(args.input)
    if cost.kind != "hop":
        raise GraphError("simulate runs on plain graphs, not explicit cost matrices")
    schedule = FailureSchedule.from_json_obj(_read_json(args.schedule)) if args.schedule else None
    checks = {}
    if args.output:  # without a trace file only the trace is printed, so skip its checks
        checks = {"r1_r2": check_r1_r2(graph), "progress": check_progress(graph.n)}
    verdicts = dict.fromkeys(checks)
    with _trace_output(args.output) as write:

        def on_step(step) -> None:
            write(encode_line(step.as_json_obj()) + "\n")
            for name, check in checks.items():
                if verdicts[name] is None:  # each check stops at its first violation
                    verdicts[name] = check(step)

        trace = run_sim(graph, args.start, schedule, args.budget, on_step)
        for line in trace.to_json_lines():
            write(line + "\n")
    summary = None
    if args.output:
        summary = {
            "outcome": trace.outcome,
            "iterations": trace.iterations,
            "explored": trace.final.exp,
            "n": trace.n,
            "r1_r2": verdicts["r1_r2"] or "ok",
            "progress": verdicts["progress"] or "ok",
        }
    return _trace_result(trace, summary)


# --- duel --------------------------------------------------------------------


def _make_agent(name: str):
    from .games import DfsRestartAgent, NnAgent

    if name == "nn":
        return NnAgent()
    if name == "dfs-restart":
        return DfsRestartAgent()
    raise GraphError(f"unknown agent {name!r} (expected nn or dfs-restart)")


def _duel_floor(spec: str, n: int) -> int:
    """Steps the arena forces on any agent: every clique edge once (clique), a
    spanning tree walked both ways (killer), or one step per new node (none)."""
    if spec == "clique":
        return n * (n - 1) // 2
    if spec == "killer":
        return 2 * (n - 1)
    if spec == "none":
        return n - 1
    raise GraphError(f"bench duel row has unknown adversary {spec!r}")


def _arena(spec: str, n: int | None, instance: object) -> tuple[Graph, Adversary]:
    """Graph and adversary for a duel: on the parsed instance JSON when one is
    given (not None), else generated at size ``n``."""
    from .games import CliqueAdversary, KillerAdversary, NullAdversary, ScheduleAdversary
    from .layered_ring import build_dfs_killer
    from .simulator import FailureSchedule

    graph = None
    if instance is not None:
        graph, cost = instance_from_json_obj(instance)
        if cost is not None:
            raise GraphError("duels run on plain graphs, not explicit cost matrices")
        n = graph.n
    if spec.startswith("schedule:"):
        if graph is None:
            raise GraphError("duel with a schedule adversary needs --input")
        schedule = FailureSchedule.from_json_obj(_read_json(spec.split(":", 1)[1]))
        return graph, ScheduleAdversary(schedule)
    if spec not in ("none", "clique", "killer"):
        raise GraphError(
            f"unknown adversary {spec!r} (expected none, clique, killer, or schedule:FILE)")
    if n is None:
        raise GraphError(f"duel with the {spec} adversary needs --n or --input")
    if spec != "killer":
        adv = NullAdversary() if spec == "none" else CliqueAdversary()
        return (complete_graph(n) if graph is None else graph), adv
    if instance is not None and instance.get("family") != "dfs-killer":
        raise GraphError("killer duels need a dfs-killer instance (or --n)")
    trap = build_dfs_killer(n)  # n is the dfs-killer family's only parameter
    if graph is not None and trap.graph != graph:
        raise GraphError("input graph does not match its dfs-killer parameters")
    return trap.graph, KillerAdversary(trap)


def cmd_duel(args: argparse.Namespace) -> int:
    from .games import CliqueAdversary, clique_stage_lengths, play_game, trace_writer

    agent = _make_agent(args.agent)
    instance = _read_json(args.input) if args.input else None
    graph, adv = _arena(args.adversary, args.n, instance)
    with _trace_output(args.output) as write:
        trace = play_game(agent, adv, graph, args.start, args.budget, trace_writer(write))
        summary = {
            "agent": trace.agent,
            "adversary": trace.adversary,
            "n": trace.n,
            "steps": trace.step_count,
            "outcome": trace.outcome,
            "visited": len(trace.visited),
            "bound": None,
            "bound_ok": None,
        }
        if isinstance(adv, CliqueAdversary):
            bound = _duel_floor("clique", graph.n)
            summary["bound"] = bound
            summary["bound_ok"] = trace.step_count >= bound
            # a run that ends before phase 1 starts raised no event: one unfinished stage
            summary["stages"] = clique_stage_lengths(trace) if trace.events else [trace.step_count]
        for line in trace.to_json_lines():
            write(line + "\n")
    return _trace_result(trace, summary if args.output else None)


# --- tree --------------------------------------------------------------------


def cmd_tree(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    graph, cost, _ = _load_instance(args.input)
    if args.ranks == "identity":
        ranks = list(range(cost.n))
    else:
        ranks = shuffled_ranks(cost.n, random.Random(split_seed(seed, "ranks")))
    tree = nn_tree(cost, ranks)
    mst, mst_edges = mst_cost(cost)
    metric = cost.triangle_violation() is None
    report = {
        "n": cost.n,
        "ranks": list(ranks),
        "root": tree.root,
        "edges": [[u, v, tree.costs[(u, v)]] for u, v in tree.edges],
        "total": tree.total,
        "mst": mst,
        "mst_edges": [list(e) for e in mst_edges],
        "metric": metric,
        "budget": None,
        "bound_ok": None,
    }
    if metric:
        report["budget"], report["bound_ok"] = nnt_bound_check(cost.n, tree.total, mst)
    _write_json(args.output, report)
    return EXIT_OK


# --- bench -------------------------------------------------------------------

BENCH_COLUMNS = ("family", "n", "m", "k", "agent", "adversary", "value", "bound", "ratio", "seed")
BENCH_ROW_KEYS = {"lr-ratio": ("m", "k"), "duel": ("n", "agent", "adversary"), "random-metric": ("n",)}


def _bench_row_kind(row: object, index: int) -> str:
    """The row's kind, once the row holds that kind's keys and integer counts."""
    if not isinstance(row, dict):
        raise GraphError(f"bench row {index} must be an object, got {row!r}")
    kind = row.get("kind")
    if not isinstance(kind, str) or kind not in BENCH_ROW_KEYS:
        raise GraphError(f"bench row {index} has unknown kind {kind!r}")
    for key in BENCH_ROW_KEYS[kind]:
        if key not in row:
            raise GraphError(f"bench {kind} row {index} needs {key!r}")
    for key in ("n", "m", "k", "start", "budget", "max_cost"):
        if key in row and (not isinstance(row[key], int) or isinstance(row[key], bool)):
            raise GraphError(f"bench row {index}: {key!r} must be an integer, got {row[key]!r}")
    return kind


def _bench_row(row: object, index: int, seed: int) -> dict:
    kind = _bench_row_kind(row, index)
    out = dict.fromkeys(BENCH_COLUMNS, "")
    if kind == "lr-ratio":
        m, k = row["m"], row["k"]
        lr = _build_lr_pow2(m, k)
        hop = CostFunction.hop_metric(lr.graph)
        value = cost_of(nn_traversal(hop, 0), hop)
        bound = lr.n - 1
        out.update(family="lr-pow2", n=lr.n, m=m, k=k,
                   value=value, bound=bound, ratio=f"{value}/{bound}")
    elif kind == "duel":
        from .games import play_game

        agent = _make_agent(row["agent"])
        n = row["n"]
        spec = row["adversary"]
        bound = _duel_floor(spec, n)
        graph, adv = _arena(spec, n, None)
        trace = play_game(agent, adv, graph, row.get("start", 0), row.get("budget"))
        out.update(family="duel", n=n, agent=row["agent"], adversary=spec,
                   value=trace.step_count, bound=bound,
                   ratio=f"{trace.step_count}/{bound}")
    else:  # random-metric
        n = row["n"]
        eff = split_seed(seed, f"bench/{index}/random-metric/{n}")
        cost = random_metric_cost(n, random.Random(eff), row.get("max_cost", 9))
        order = nn_traversal(cost, row.get("start", 0))
        value = cost_of(order, cost)
        opt, _ = opt_traversal(cost)
        out.update(family="random-metric", n=n, value=value,
                   bound=nn_upper_bound(n, opt), ratio=f"{value}/{opt}", seed=eff)
    return out


def cmd_bench(args: argparse.Namespace) -> int:
    import csv

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


# --- parser / entry ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nntrav",
        description="Greedy graph traversal worst cases, failure-round simulation, "
                    "edge-deletion games, and rank-greedy trees.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="emit an instance of a named family")
    g.add_argument("family", choices=GENERATE_FAMILIES)
    g.add_argument("--m", type=int, help="ring exponent (lr-pow2)")
    g.add_argument("--nu", type=int, help="ring size (lr-general, lr-padded)")
    g.add_argument("--k", type=int, help="layer count (lr families)")
    g.add_argument("--n", type=int, help="node count (most families)")
    g.add_argument("--max-cost", type=int, default=9, help="random-metric cost cap")
    g.add_argument("--seed", type=int)
    g.add_argument("--output")
    g.add_argument("--format", choices=("json", "dot"), default="json")

    t = sub.add_parser("traverse", help="greedy traversal with profile and bound report")
    t.add_argument("--input", required=True)
    t.add_argument("--start", type=int, default=0)
    t.add_argument("--ties", default="lowest-id",
                   help="lowest-id, random, or scripted:FILE")
    t.add_argument("--seed", type=int)
    t.add_argument("--output")

    s = sub.add_parser("simulate", help="run the round simulator under a failure schedule")
    s.add_argument("--input", required=True)
    s.add_argument("--start", type=int, default=0)
    s.add_argument("--schedule", help="failure schedule JSON")
    s.add_argument("--budget", type=int, help="override the 4n² iteration budget")
    s.add_argument("--output", help="trace JSONL path (summary then goes to stdout)")

    d = sub.add_parser("duel", help="agent versus adversary on a graph")
    d.add_argument("agent", help="nn or dfs-restart")
    d.add_argument("adversary", help="none, clique, killer, or schedule:FILE")
    d.add_argument("--n", type=int, help="size for a generated arena")
    d.add_argument("--input", "--graph", dest="input", help="instance JSON to play on")
    d.add_argument("--start", type=int, default=0)
    d.add_argument("--budget", type=int, help="override the 8n² step budget")
    d.add_argument("--output", help="trace JSONL path (summary then goes to stdout)")

    r = sub.add_parser("tree", help="rank-greedy spanning tree with MST bound report")
    r.add_argument("--input", required=True)
    r.add_argument("--ranks", choices=("identity", "shuffle"), default="identity")
    r.add_argument("--seed", type=int)
    r.add_argument("--output")

    b = sub.add_parser("bench", help="run a suite of rows into a CSV table")
    b.add_argument("--suite", required=True)
    b.add_argument("--seed", type=int)
    b.add_argument("--output")
    b.add_argument("--format", choices=("csv",), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "traverse": cmd_traverse,
        "simulate": cmd_simulate,
        "duel": cmd_duel,
        "tree": cmd_tree,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.cmd](args)
    except GraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as err:
        print(f"i/o error: invalid JSON: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
