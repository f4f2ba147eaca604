"""Shared builders for the test suite: random connected graphs and failure schedules."""

import random

from nntrav import FailureSchedule, Graph


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
