"""Exact game values at small n: both deletion claims, settled by search.

*Min over agents.*  A breadth-first search over every agent move sequence
on K_n from node 0, against the package's own ``CliqueAdversary``, finds
the fewest steps after which the agent may legally halt (its whole
component visited).  A state is the graph's edges, the agent's position,
the visited set and the adversary's fields, copied generically, so the
search sees whatever the adversary keeps.  No agent beats n(n−1)/2.

*Max over adversaries.*  The nn walker is restated as a pure rule of
(graph, visited, position), and a memoised recursion lets the adversary
delete any subset of the current edges before each move, one edge at a
time, starting from K_n at node 0.  The most steps any adversary forces is
n(n−1)/2 at the sizes checked.  ``NnAgent`` is then driven through
``play_game`` along the path by which the search first reached each of its
states, and must make the rule's move at every step.

Run as a script to measure larger sizes:

    PYTHONPATH=src python tests/test_exact_games.py min 7
    PYTHONPATH=src python tests/test_exact_games.py max 6

prints n, the search's value, n(n−1)/2, the number of states and the
seconds taken.
"""

from __future__ import annotations

import sys
import time

import pytest

from nntrav.games import CliqueAdversary, NnAgent, ScheduleAdversary, play_game
from nntrav.graph import Graph, complete_graph
from nntrav.simulator import FailureSchedule


def _fields(adv: CliqueAdversary) -> tuple:
    return tuple(sorted((k, v) for k, v in vars(adv).items() if k != "events"))


def min_clique_steps(n: int) -> tuple[int, int]:
    """The fewest steps any agent needs against the clique adversary on K_n,
    and the number of distinct states the search visited."""
    graph = complete_graph(n)
    adv = CliqueAdversary()
    adv.reset(graph, 0)
    start = (frozenset(graph.edges()), 0, frozenset({0}), _fields(adv))
    seen = {start}
    frontier = [start]
    step = 0
    while frontier:
        step += 1
        nxt = []
        for edges, pos, visited, fields in frontier:
            here = Graph(n, edges)
            for to in sorted(here.adjacency[pos]):
                work = here.copy()
                adv.__dict__.update(fields)
                adv.events = []
                now = visited | {to}
                work.delete_edges(adv.react(work, set(now), step, pos, to))
                state = (frozenset(work.edges()), to, now, _fields(adv))
                if work.component(to) <= now:
                    return step, len(seen) + 1
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    raise AssertionError("no move sequence visits the agent's component")


def _distances(adj: list[list[int]], source: int) -> list[int | None]:
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def nn_rule(adj: list[list[int]], visited: int, pos: int) -> int | None:
    """The nn walker's move: toward the lowest-id nearest unvisited node (bit
    v of ``visited`` set for each visited v), the lowest-id neighbour on a
    shortest path to it; None when no unvisited node is reachable."""
    dist = _distances(adj, pos)
    unvisited = [(d, v) for v, d in enumerate(dist) if d is not None and not visited >> v & 1]
    if not unvisited:
        return None
    d, target = min(unvisited)
    back = _distances(adj, target)
    return min(w for w in adj[pos] if back[w] == d - 1)


def max_nn_steps(n: int, paths: list | None = None) -> tuple[int, int]:
    """The most steps any deleting adversary forces on :func:`nn_rule` from
    node 0 of K_n, and the number of memoised states.

    A state is (edges, position, visited), edges and visited as bitsets; its
    value is the larger of moving now and of deleting one more edge first.
    Each step brings the walker one hop nearer the nearest unvisited node,
    or visits it, so without a deletion no state comes back: the recursion
    ends.  With ``paths`` given, each state's first path is appended as
    (history, pending, hop): the (cuts, move) pairs that reached it, the
    cuts since the last move, and the rule's move there.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    memo: dict[tuple[int, int, int], int] = {}

    def value(edges: int, pos: int, visited: int, history: tuple, pending: tuple) -> int:
        key = (edges, pos, visited)
        if key in memo:
            return memo[key]
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(pairs):
            if edges >> i & 1:
                adj[u].append(v)
                adj[v].append(u)
        hop = nn_rule(adj, visited, pos)
        if paths is not None:
            paths.append((history, pending, hop))
        best = 0
        if hop is not None:
            best = 1 + value(edges, hop, visited | 1 << hop, history + ((pending, hop),), ())
        for i, e in enumerate(pairs):
            if edges >> i & 1:
                best = max(best, value(edges ^ 1 << i, pos, visited, history, pending + (e,)))
        memo[key] = best
        return best

    return value((1 << len(pairs)) - 1, 0, 1, (), ()), len(memo)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_no_agent_beats_the_clique_floor(n):
    steps, _ = min_clique_steps(n)
    assert steps == n * (n - 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_no_adversary_pushes_nn_past_the_floor(n):
    steps, _ = max_nn_steps(n)
    assert steps == n * (n - 1) // 2


def test_nn_agent_makes_the_rules_moves():
    """At n = 4, every state of the max search, reached by the path that
    found it first: ``NnAgent`` makes the rule's moves, and halts where the
    rule does."""
    paths: list = []
    _, states = max_nn_steps(4, paths=paths)
    assert len(paths) == states
    for history, pending, hop in paths:
        script = [cuts for cuts, _ in history] + [pending]
        schedule = FailureSchedule({step: cuts for step, cuts in enumerate(script)})
        moves: list[int] = []
        trace = play_game(NnAgent(), ScheduleAdversary(schedule), complete_graph(4), 0,
                          len(script), lambda step, frm, to, *_: step and moves.append(to))
        want = [move for _, move in history] + ([] if hop is None else [hop])
        assert moves == want
        assert (trace.outcome == "halted") == (hop is None)


if __name__ == "__main__":
    search = {"min": min_clique_steps, "max": max_nn_steps}[sys.argv[1]]
    for n in map(int, sys.argv[2:]):
        t0 = time.perf_counter()
        steps, states = search(n)
        print(f"n={n} {sys.argv[1]}={steps} floor={n * (n - 1) // 2} states={states} "
              f"seconds={time.perf_counter() - t0:.2f}")
