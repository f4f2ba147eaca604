"""Rank-greedy spanning trees and their logarithmic bound against the MST.

Given unique ranks, every node except the top-ranked one links to its
cheapest strictly-higher-ranked node.  The links always form a spanning tree;
on metric costs its total weight stays within 2·(1 + ln n) of the minimum
spanning tree.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Edge, GraphError, normalize_edge, validate_traversal
from .nn import log_ceiling


def shuffled_ranks(n: int, rng) -> list[int]:
    ranks = list(range(n))
    rng.shuffle(ranks)
    return ranks


class RankedTree(NamedTuple):
    """Spanning tree where each non-top node holds one edge to a higher rank:
    in each edge, the lower-ranked end attaches to the other."""

    edges: list[Edge]
    costs: dict[Edge, int]
    total: int
    root: int


def nn_tree(mat: list[list[int]], ranks) -> RankedTree:
    """Link every node to its cheapest strictly-higher-ranked node in ``mat`` (ties: lowest id)."""
    n = len(mat)
    validate_traversal(ranks, n)
    root = ranks.index(n - 1)
    attach: dict[int, int] = {}
    for v in range(n):
        if v == root:
            continue
        best = min(
            (w for w in range(n) if ranks[w] > ranks[v]),
            key=lambda w: (mat[v][w], w),
        )
        attach[v] = best
    edges = sorted(normalize_edge(v, w) for v, w in attach.items())
    costs = {e: mat[e[0]][e[1]] for e in edges}
    return RankedTree(edges, costs, sum(costs.values()), root)


def mst_cost(mat: list[list[int]]) -> tuple[int, list[Edge]]:
    """Exact minimum spanning tree of the complete cost matrix ``mat`` (Prim, deterministic)."""
    n = len(mat)
    if n == 1:
        return 0, []
    in_tree = [False] * n
    best = list(mat[0])
    best_from = [0] * n
    in_tree[0] = True
    edges: list[Edge] = []
    total = 0
    for _ in range(n - 1):
        v = min(
            (u for u in range(n) if not in_tree[u]),
            key=lambda u: (best[u], u),
        )
        in_tree[v] = True
        total += best[v]
        edges.append(normalize_edge(best_from[v], v))
        row = mat[v]
        for u in range(n):
            if not in_tree[u] and row[u] < best[u]:
                best[u] = row[u]
                best_from[u] = v
    return total, sorted(edges)


def nnt_bound_check(n: int, tree_total: int, mst: int) -> tuple[int, bool]:
    """(budget, ok): the budget ceil(2·(1 + ln n)·MST) and whether the
    rank-greedy tree's total (:func:`nn_tree`) stays within it, given the MST
    cost (:func:`mst_cost`).  The bound is claimed only for metric costs; the
    caller checks that."""
    if n < 1:
        raise GraphError(f"bound needs n >= 1, got {n}")
    budget = log_ceiling(2 * mst, n)
    return budget, tree_total <= budget
