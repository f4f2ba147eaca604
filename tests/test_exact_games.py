"""Exact game values at small n: no agent beats the clique adversary's floor.

A breadth-first search over every agent move sequence on K_n from node 0,
against the package's own ``CliqueAdversary``, finds the fewest steps after
which the agent may legally halt (its whole component visited).  A state is
the graph's edges, the agent's position, the visited set and the adversary's
fields, copied generically, so the search sees whatever the adversary keeps.

Run as a script to measure larger sizes:

    PYTHONPATH=src python tests/test_exact_games.py 7

prints n, the minimum, the floor n(n−1)/2, the number of states and the
seconds taken.
"""

from __future__ import annotations

import sys
import time

import pytest

from nntrav.games import CliqueAdversary
from nntrav.graph import Graph, complete_graph


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


@pytest.mark.parametrize("n", [4, 5, 6])
def test_no_agent_beats_the_clique_floor(n):
    steps, _ = min_clique_steps(n)
    assert steps == n * (n - 1) // 2


if __name__ == "__main__":
    for n in map(int, sys.argv[1:]):
        t0 = time.perf_counter()
        steps, states = min_clique_steps(n)
        print(f"n={n} min={steps} floor={n * (n - 1) // 2} states={states} "
              f"seconds={time.perf_counter() - t0:.2f}")
