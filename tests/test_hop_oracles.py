"""The hop hot paths against the whole-graph algorithms they replaced.

Each oracle here is the earlier implementation, kept only to pin the faster
one: all-pairs BFS rows for the hop cost extremes, a full BFS from the target
for the nn agent's hop, and a fresh multi-source BFS every round for the R1/R2
checker.
"""

import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nntrav.games import NnAgent
from nntrav.graph import CostFunction, GraphError, UnreachableError, bfs_distances, nearest_of
from nntrav.simulator import check_r1_r2

from helpers import first_violation, random_connected_graph, random_schedule, run_recorded

SEEDS = st.integers(0, 2**32 - 1)


def extremes_oracle(cost: CostFunction) -> tuple[int, int]:
    """(min, max) over distinct pairs, read off every full row."""
    if cost.n < 2:
        raise GraphError("no distinct pairs on a single node")
    tails = [cost.row(u)[u + 1:] for u in range(cost.n - 1)]
    return min(min(t) for t in tails), max(max(t) for t in tails)


def nn_decide_oracle(graph, visited, pos):
    """Lowest-id nearest target, then the lowest-id neighbor one hop closer to
    it, found with a full BFS from the target."""
    found = nearest_of(graph, pos, set(range(graph.n)) - visited)
    if found is None:
        return None
    dist, tied = found
    target = tied[0]
    if dist == 1:
        return target
    from_target = bfs_distances(graph, target)
    return min(u for u in graph.adjacency[pos] if from_target[u] == dist - 1)


def r1_r2_oracle(trace, steps, graph):
    """R1/R2 over a run's recorded rounds, with a fresh multi-source BFS and a
    full scan every round."""
    work = graph.copy()
    for u, v in trace.pre_deleted:
        work.delete_edge(u, v)
    prev = [0] * trace.n
    visited = [False] * trace.n
    visited[trace.start] = True
    for step in steps:
        if not step.iteration:  # the pre-run deletions, applied above
            continue
        if step.explored is not None:
            visited[step.explored] = True
        for v in range(trace.n):
            if step.dist[v] < prev[v]:
                return (
                    f"R1 violated at iteration {step.iteration}: "
                    f"dist[{v}] decreased {prev[v]} -> {step.dist[v]}"
                )
        true = bfs_distances(work, *(v for v in range(trace.n) if not visited[v]))
        for v in range(trace.n):
            if visited[v] and step.dist[v] > true[v]:
                return (
                    f"R2 violated at iteration {step.iteration}: "
                    f"dist[{v}] = {step.dist[v]} exceeds true distance {true[v]}"
                )
        prev = list(step.dist)
        for u, v in step.deleted:
            work.delete_edge(u, v)
    return None


def thinned_graph(rng, n, keep):
    """A random connected graph with each edge then deleted with probability 1 - keep."""
    g = random_connected_graph(rng, n)
    for u, v in g.edges():
        if rng.random() > keep:
            g.delete_edge(u, v)
    return g


def outcome(fn, *args):
    """The return value, or the type and text of the GraphError raised."""
    try:
        return fn(*args)
    except GraphError as err:
        return type(err), str(err)


@given(st.integers(1, 14), SEEDS, st.floats(0.5, 1.0))
@example(1, 0, 1.0)
@example(2, 1, 0.5)  # two nodes, their one edge deleted
@settings(max_examples=80, deadline=None)
def test_hop_extremes_match_all_pairs_rows(n, seed, keep):
    g = thinned_graph(random.Random(seed), n, keep)
    cost = CostFunction.hop_metric(g)
    got = outcome(cost.pair_cost_extremes)
    assert got == outcome(extremes_oracle, cost)
    if n == 1:
        assert got[0] is GraphError
    elif len(g.component(0)) < g.n:
        assert got[0] is UnreachableError
    else:
        assert got[0] == 1


@given(st.integers(2, 14), SEEDS, st.floats(0.3, 1.0))
@settings(max_examples=80, deadline=None)
def test_nn_hop_matches_the_full_bfs_rule(n, seed, keep):
    rng = random.Random(seed)
    g = thinned_graph(rng, n, keep)
    visited = set(rng.sample(range(n), rng.randint(1, n)))
    for pos in sorted(visited):
        assert NnAgent().decide(g, visited, pos) == nn_decide_oracle(g, visited, pos)


def tampered(steps, n, rng):
    """The recorded rounds with one label of one round set to another value."""
    rounds = [i for i, s in enumerate(steps) if s.iteration]
    i = rng.choice(rounds)
    v = rng.randrange(n)
    dist = list(steps[i].dist)
    dist[v] = rng.choice([x for x in range(n + 2) if x != dist[v]])
    steps = list(steps)
    steps[i] = dataclasses.replace(steps[i], dist=tuple(dist))
    return steps


@given(st.integers(2, 16), SEEDS)
@settings(max_examples=80, deadline=None)
def test_r1_r2_matches_the_per_round_bfs_checker(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    trace, steps = run_recorded(g, rng.randrange(n), random_schedule(rng, g))
    assert first_violation(check_r1_r2(g), steps) is None
    assert r1_r2_oracle(trace, steps, g) is None
    bad = tampered(steps, n, rng)
    assert first_violation(check_r1_r2(g), bad) == r1_r2_oracle(trace, bad, g)


def test_tampered_traces_reach_both_verdicts():
    """The sweep the property samples finds R1 and R2 violations, each worded
    exactly as the oracle words it, plus tamperings that break neither."""
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        g = random_connected_graph(rng, n)
        trace, steps = run_recorded(g, rng.randrange(n), random_schedule(rng, g))
        bad = tampered(steps, n, rng)
        got = first_violation(check_r1_r2(g), bad)
        assert got == r1_r2_oracle(trace, bad, g)
        kinds.add(got[:2] if got else None)
    assert kinds == {"R1", "R2", None}
