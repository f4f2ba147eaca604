"""Shared builders and oracles for the test suite: random connected graphs and
failure schedules, the small worked instances, and a greedy-validity checker."""

import ast
import random
from pathlib import Path
from typing import Sequence

from nntrav.graph import (
    CostFunction,
    Graph,
    GraphError,
    UnreachableError,
    bfs_levels,
    validate_traversal,
)
from nntrav.simulator import FailureSchedule, SimTrace

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    """The benchmark tracer's LAYERS table (module -> traced names), read from
    ``perfbench/tracer.py`` without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def random_connected_graph(rng: random.Random, n: int, extra: int | None = None) -> Graph:
    """Random spanning tree plus ``extra`` additional edges (default: up to n)."""
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        a = nodes[rng.randrange(i)]
        edges.add(tuple(sorted((a, nodes[i]))))
    want = rng.randint(0, n) if extra is None else extra
    tries = 0
    while n > 1 and want > 0 and tries < 50 * (want + 1):
        tries += 1
        u, v = rng.sample(range(n), 2)
        e = tuple(sorted((u, v)))
        if e not in edges:
            edges.add(e)
            want -= 1
    return Graph(n, sorted(edges))


def random_schedule(rng: random.Random, graph: Graph, rounds: int | None = None) -> FailureSchedule:
    """Failure schedule over distinct initial edges; never names an edge twice."""
    pool = list(graph.edges())
    rng.shuffle(pool)
    cut = pool[: rng.randint(0, len(pool))]
    if rounds is None:
        rounds = 2 * graph.n
    plan: dict[int, list] = {}
    for e in cut:
        plan.setdefault(rng.randint(0, rounds), []).append(e)
    return FailureSchedule({k: tuple(v) for k, v in plan.items()})


def metric_closure(graph: Graph) -> CostFunction:
    """All-pairs hop distances materialized as an explicit matrix."""
    return CostFunction.from_matrix(CostFunction.hop_metric(graph).as_matrix())


def unbounded_ratio_instance(x: int = 10) -> CostFunction:
    """Four-point matrix whose greedy traversal costs x+3 while a cost-5 tour exists.

    The pair (0,1) costs ``x``; raising ``x`` makes the greedy route from node 3
    arbitrarily worse than optimal, and for x > 4 the triangle inequality fails.
    """
    if x < 0:
        raise GraphError("x must be nonnegative")
    m = [
        [0, x, 2, 2],
        [x, 0, 2, 2],
        [2, 2, 0, 1],
        [2, 2, 1, 0],
    ]
    return CostFunction.from_matrix(m)


def explored_order(trace: SimTrace) -> list[int]:
    """The start node, then each node in the round it was first explored."""
    return [trace.start, *(s.explored for s in trace.steps if s.explored is not None)]


def validate_nn_traversal(c: CostFunction, order: Sequence[int]) -> int | None:
    """None when every step goes to a nearest unvisited node; else the first bad index.

    The returned index is the position in ``order`` of the first node that was
    not a valid greedy choice.  Tie-breaking is irrelevant: any nearest node is
    accepted.
    """
    validate_traversal(order, c.n)
    if c.n == 1:
        return None
    unvisited = set(range(c.n))
    unvisited.discard(order[0])
    for i in range(1, c.n):
        prev, cur = order[i - 1], order[i]
        if c.kind == "matrix":
            row = c.row(prev)
            step = row[cur]
            if any(row[v] < step for v in unvisited):
                return i
        else:
            # hop metric: expand BFS levels from the previous node until the
            # chosen node appears; an unvisited node in an earlier level wins.
            for level in bfs_levels(c.graph, (prev,)):
                if cur in level:
                    break
                if not unvisited.isdisjoint(level):
                    return i
            else:
                raise UnreachableError(f"step {i}: node {cur} unreachable from {prev}")
        unvisited.discard(cur)
    return None
