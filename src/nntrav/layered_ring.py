"""Layered ring graphs that trap greedy traversal, plus a two-clique DFS trap.

A layered ring on ring size ``nu`` places every node at a position in
``0..nu``; two distinct nodes are adjacent exactly when their positions differ
by 0 or 1 modulo ``nu + 1``.  A backbone occupies every position, and ``k``
halving layers occupy progressively denser position sets.  Greedy traversal
started at backbone position 0 can be steered to sweep the backbone and then
every layer, paying the full ring once per layer.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .graph import Edge, Graph, GraphError, normalize_edge


def _check_ring(nu: int, k: int) -> None:
    if nu < 2:
        raise GraphError(f"ring size must be >= 2, got {nu}")
    if k < 0:
        raise GraphError(f"layer count must be >= 0, got {k}")


def _halvings(g: int) -> set[int]:
    """{ceil(g / 2**t) : t >= 0}, for g >= 1: g, ceil(g / 2), ..., 1."""
    out = {g}
    while g > 1:
        g -= g // 2  # ceil(g / 2**(t+1)) = ceil(ceil(g / 2**t) / 2)
        out.add(g)
    return out


def layers_general(nu: int, k: int) -> list[tuple[int, ...]]:
    """Halving layers for arbitrary ring size, by repeated ceiling-halving.

    Layer 1 is {0} plus {ceil(nu / 2**t) : t >= 0}; each later layer refines
    every gap (a, b) with {a + ceil((b - a) / 2**t) : t >= 0}, plus 0.  For
    nu = 2**m every ceiling is exact, so the layers are the powers-of-two
    halvings: layer 1 is {0, 1, 2, 4, ..., 2**m}.
    """
    _check_ring(nu, k)
    if k == 0:
        return []
    layers = [tuple(sorted({0} | _halvings(nu)))]
    for _ in range(k - 1):
        prev = layers[-1]
        cur = {0}
        for a, b in zip(prev, prev[1:]):
            cur.update(a + h for h in _halvings(b - a))
        layers.append(tuple(sorted(cur)))
    return layers


class LayeredRing(NamedTuple):
    """A built layered ring: graph, node positions, and per-layer node ids.

    Node numbering: backbone 0..nu first (id = position), then layer k down to
    layer 1, each layer's nodes in increasing position order.  This numbering
    makes lowest-id tie-breaking favor the backbone sweep and deeper layers.
    """

    nu: int
    k: int
    graph: Graph
    positions: list[int]
    layer_sets: list[tuple[int, ...]]
    layer_ids: dict[int, list[int]]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def nn_cost(self) -> int:
        """Cost of the canonical greedy route: every layer pays the whole ring."""
        return (self.k + 1) * (self.nu + 1) - 1


def _ring_graph(nu: int, positions: list[int]) -> Graph:
    occupants: list[list[int]] = [[] for _ in range(nu + 1)]
    for node, p in enumerate(positions):
        occupants[p].append(node)
    edges: list[Edge] = []
    for p in range(nu + 1):
        bucket = occupants[p]
        edges.extend(combinations(bucket, 2))
        nxt = occupants[(p + 1) % (nu + 1)]
        for u in bucket:
            for v in nxt:
                edges.append(normalize_edge(u, v))
    return Graph(len(positions), edges)


def build_lr(nu: int, k: int) -> LayeredRing:
    """Backbone ring of size ``nu`` plus ``k`` halving layers."""
    _check_ring(nu, k)
    layer_sets = layers_general(nu, k)
    positions = list(range(nu + 1))
    layer_ids: dict[int, list[int]] = {}
    next_id = nu + 1
    for layer in range(k, 0, -1):
        ids = []
        for p in layer_sets[layer - 1]:
            positions.append(p)
            ids.append(next_id)
            next_id += 1
        layer_ids[layer] = ids
    return LayeredRing(nu, k, _ring_graph(nu, positions), positions, layer_sets, layer_ids)


def vertex_count_formula(m: int, k: int) -> int:
    """Closed-form node count of the ring-size-2**m family with k layers."""
    if m < 1:
        raise GraphError(f"need m >= 1, got {m}")
    if k < 0:
        raise GraphError(f"need k >= 0, got {k}")
    total = (1 << m) + k + 1 + 2 * k * math.comb(m - 1, 0)
    for i in range(1, k + 1):
        total += (2 * k - 2 * i + 1) * math.comb(m - 1, i)
    return total


def canonical_nn_route(lr: LayeredRing) -> list[int]:
    """Backbone sweep, then each layer k..1 in increasing position order.

    A greedy traversal from node 0 can follow this order; its cost is
    :attr:`LayeredRing.nn_cost`.
    """
    order = list(range(lr.nu + 1))
    for layer in range(lr.k, 0, -1):
        order.extend(lr.layer_ids[layer])
    return order


def hamiltonian_route(lr: LayeredRing) -> list[int]:
    """Position sweep visiting all co-positioned nodes together; cost n - 1."""
    return sorted(range(lr.n), key=lr.positions.__getitem__)  # stable: ids ascend per position


class PaddedRing(NamedTuple):
    """A layered ring padded with a small clique of extra nodes to hit an exact n.

    The extras form a clique, each also adjacent to backbone position 0 and to
    the layer-1 node at position nu; visiting them first leaves the base
    routes intact.
    """

    graph: Graph
    base: LayeredRing
    extras: list[int]
    nn_route: list[int]
    hamiltonian: list[int]


def pad_to_n(nu: int, k: int, n: int) -> PaddedRing:
    if k < 1:
        raise GraphError(f"padding needs k >= 1, got {k}")
    base = build_lr(nu, k)
    q = n - base.n
    if not 0 <= q <= k + 1:
        raise GraphError(
            f"target n={n} outside the window [{base.n}, {base.n + k + 1}] for nu={nu}, k={k}"
        )
    extras = list(range(base.n, n))
    edges = base.graph.edges()
    anchor = base.layer_ids[1][-1]  # layer-1 node at position nu
    for i, e in enumerate(extras):
        edges.append((0, e))
        edges.append((anchor, e))
        for f in extras[i + 1 :]:
            edges.append((e, f))
    graph = Graph(n, edges)
    nn_route = extras + canonical_nn_route(base)
    sweep = extras + hamiltonian_route(base)
    return PaddedRing(graph, base, extras, nn_route, sweep)


class DfsTrap(NamedTuple):
    """Two cliques joined by a long path, with a spanning tree no clique fits on.

    ``tree_edges`` is a star inside each clique centered on its path endpoint,
    plus the path itself, so any depth-first walk must re-enter a clique
    through its center.  The companion deletion rule: after the walker moves
    forward across a non-tree edge, delete it — at most one deletion per fresh
    search.  Each deletion forces a full restart, and every restart re-walks
    a clique and often the whole path.
    """

    graph: Graph
    tree_edges: frozenset[Edge]
    clique_a: list[int]
    clique_b: list[int]
    path_nodes: list[int]
    rule: str = "first-nontree-forward-edge-per-search"


def build_dfs_killer(n: int) -> DfsTrap:
    if n % 3 != 0:
        raise GraphError(f"node count must be divisible by 3, got {n}")
    q = n // 3
    if q <= 3:
        raise GraphError(f"cliques need more than 3 nodes each, got {q}")
    clique_a = list(range(q))
    path_nodes = list(range(q, 2 * q))
    clique_b = list(range(2 * q, 3 * q))
    edges: list[Edge] = []
    for group in (clique_a, clique_b):
        edges.extend(combinations(group, 2))
    chain = [0] + path_nodes + [2 * q]
    chain_edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges.extend(chain_edges)
    tree = set(chain_edges)
    tree.update((0, i) for i in clique_a[1:])
    tree.update((2 * q, j) for j in clique_b[1:])
    return DfsTrap(Graph(n, edges), frozenset(tree), clique_a, clique_b, path_nodes)
