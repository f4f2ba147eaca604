import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntrav.graph import CostFunction, GraphError, cost_of, hop_distance
from nntrav.layered_ring import (
    build_dfs_killer,
    build_lr,
    canonical_nn_route,
    hamiltonian_route,
    layers_general,
    pad_to_n,
    vertex_count_formula,
)
from nntrav.nn import nn_traversal
from helpers import validate_nn_traversal


def layers_pow2(m: int, k: int) -> list[tuple[int, ...]]:
    """Reference halving layers for ring size 2**m, by powers of two.

    Layer 1 is {0, 1, 2, 4, ..., 2**m}; each later layer refines every gap
    (a, b) of its predecessor with {a + 2**t : 2**t <= b - a}, plus 0.
    """
    if k == 0:
        return []
    first = {0} | {1 << t for t in range(m + 1)}
    layers = [tuple(sorted(first))]
    for _ in range(k - 1):
        prev = layers[-1]
        cur = {0}
        for a, b in zip(prev, prev[1:]):
            g = b - a
            t = 0
            while (1 << t) <= g:
                cur.add(a + (1 << t))
                t += 1
        layers.append(tuple(sorted(cur)))
    return layers


def leg_counts(m: int, k: int) -> dict[tuple[int, int], int]:
    """Count of gaps of length 2**t between consecutive layer positions.

    Key (i, t) maps to the number of length-2**t gaps in layer i of the
    ring-size-2**m family, computed by the refinement recurrence.
    """
    if m < 1:
        raise GraphError(f"need m >= 1, got {m}")
    if k < 1:
        raise GraphError(f"need k >= 1, got {k}")
    counts: dict[tuple[int, int], int] = {}
    for t in range(m):
        counts[(1, t)] = 2 if t == 0 else 1
    for i in range(2, k + 1):
        for t in range(1, m):
            counts[(i, t)] = sum(counts[(i - 1, u)] for u in range(t + 1, m))
        counts[(i, 0)] = counts[(i - 1, 0)] + 2 * sum(
            counts[(i - 1, u)] for u in range(1, m)
        )
    return counts


def test_halving_layers_of_the_16_ring():
    layers = layers_general(16, 2)
    assert layers[0] == (0, 1, 2, 4, 8, 16)
    assert layers[1] == (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16)


def test_layers_are_nested():
    for m in range(2, 9):
        layers = layers_general(1 << m, m - 1)
        for a, b in zip(layers, layers[1:]):
            assert set(a) <= set(b)
        assert {0, 1, 2**m} <= set(layers[0])


def test_general_layers_match_pow2_on_powers_of_two():
    for m in range(1, 9):
        for k in range(1, max(2, m)):
            assert layers_general(1 << m, k) == layers_pow2(m, k)


def test_general_layers_cover_endpoints():
    for nu in (2, 3, 5, 7, 12, 100):
        layers = layers_general(nu, 3)
        for layer in layers:
            assert layer[0] == 0 and layer[-1] == nu


def test_leg_counts_match_position_gaps():
    for m in range(2, 9):
        k = m - 1
        counts = leg_counts(m, k)
        layers = layers_general(1 << m, k)
        for i in range(1, k + 1):
            pos = layers[i - 1]
            gaps: dict[int, int] = {}
            for a, b in zip(pos, pos[1:]):
                gaps[b - a] = gaps.get(b - a, 0) + 1
            for t in range(m):
                assert counts.get((i, t), 0) == gaps.get(1 << t, 0)
            assert sum(counts[(i, t)] << t for t in range(m) if (i, t) in counts) == 1 << m


def test_leg_counts_closed_form():
    # gaps of length 2**t in layer i: binomial in (m, i); unit gaps get the
    # doubling from the two ends of every split
    for m in range(2, 10):
        counts = leg_counts(m, m - 1)
        for i in range(1, m):
            for t in range(1, m):
                assert counts.get((i, t), 0) == math.comb(m - t - 1, i - 1)
            assert counts[(i, 0)] == 2 * sum(math.comb(m - 1, u) for u in range(i))


def test_vertex_count_formula_matches_built_graphs():
    for m in range(2, 8):
        for k in range(0, m):
            lr = build_lr(1 << m, k)
            assert lr.n == vertex_count_formula(m, k)


def test_ring_adjacency_is_positional():
    lr = build_lr(6, 2)
    g, pos = lr.graph, lr.positions
    mod = lr.nu + 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            expected = (pos[u] - pos[v]) % mod in (0, 1, mod - 1)
            assert g.has_edge(u, v) == expected


def test_build_rejects_bad_parameters():
    with pytest.raises(GraphError):
        build_lr(1, 1)
    with pytest.raises(GraphError):
        build_lr(8, -1)
    with pytest.raises(GraphError):
        leg_counts(3, 0)


def test_node_numbering_backbone_then_deep_layers():
    lr = build_lr(16, 2)
    assert lr.positions[:17] == list(range(17))
    # layer k comes right after the backbone, layer 1 last
    assert lr.layer_ids[2] == list(range(17, 29))
    assert lr.layer_ids[1] == list(range(29, 35))
    assert [lr.positions[v] for v in lr.layer_ids[1]] == [0, 1, 2, 4, 8, 16]


def test_canonical_route_on_the_fig2_ring():
    lr = build_lr(16, 2)
    assert lr.n == 35
    route = canonical_nn_route(lr)
    hop = CostFunction.hop_metric(lr.graph)
    assert cost_of(route, hop) == 50
    assert validate_nn_traversal(hop, route) is None
    # the default greedy walk from node 0 lands on exactly this route
    assert nn_traversal(hop, 0) == route


def test_canonical_route_cost_formula_small_sweep():
    for m in range(2, 7):
        for k in range(1, m):
            lr = build_lr(1 << m, k)
            hop = CostFunction.hop_metric(lr.graph)
            route = canonical_nn_route(lr)
            assert cost_of(route, hop) == (k + 1) * ((1 << m) + 1) - 1
            assert validate_nn_traversal(hop, route) is None


def test_hamiltonian_route_is_adjacent_sweep():
    for nu, k in ((16, 2), (7, 3), (12, 1)):
        lr = build_lr(nu, k)
        sweep = hamiltonian_route(lr)
        assert sorted(sweep) == list(range(lr.n))
        for a, b in zip(sweep, sweep[1:]):
            assert lr.graph.has_edge(a, b)
        assert cost_of(sweep, CostFunction.hop_metric(lr.graph)) == lr.n - 1


@given(st.integers(2, 40), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_padding_window_covers_k_plus_two_sizes(nu, k):
    base = build_lr(nu, k)
    lo, hi = base.n, base.n + k + 1
    for n in range(lo, hi + 1):
        padded = pad_to_n(nu, k, n)
        assert padded.graph.n == n
        assert len(padded.extras) == n - lo
        hop = CostFunction.hop_metric(padded.graph)
        assert validate_nn_traversal(hop, padded.nn_route) is None
        assert cost_of(padded.hamiltonian, hop) == n - 1
    with pytest.raises(GraphError):
        pad_to_n(nu, k, lo - 1)
    with pytest.raises(GraphError):
        pad_to_n(nu, k, hi + 1)


def test_padding_keeps_base_distances():
    padded = pad_to_n(16, 2, 37)
    base = build_lr(16, 2)
    for u in (0, 5, 20, 34):
        for v in (1, 16, 29):
            assert hop_distance(padded.graph, u, v) == hop_distance(base.graph, u, v)


def test_dfs_trap_shape():
    trap = build_dfs_killer(12)
    g = trap.graph
    assert g.n == 12
    assert g.edge_count == 17  # 2 * C(4,2) + 5 chain edges
    assert trap.clique_a == [0, 1, 2, 3]
    assert trap.path_nodes == [4, 5, 6, 7]
    assert trap.clique_b == [8, 9, 10, 11]
    assert len(trap.tree_edges) == 11
    assert all(g.has_edge(u, v) for u, v in trap.tree_edges)
    assert sum(1 for e in g.edges() if e not in trap.tree_edges) == 6
    assert trap.rule == "first-nontree-forward-edge-per-search"
    assert len(g.component(0)) == g.n


def test_dfs_trap_tree_spans_without_cycles():
    for n in (12, 24, 48):
        trap = build_dfs_killer(n)
        # union-find over the tree edges: n-1 edges joining n components
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 0
        for u, v in trap.tree_edges:
            ru, rv = find(u), find(v)
            assert ru != rv
            parent[ru] = rv
            merged += 1
        assert merged == n - 1


def test_dfs_trap_rejects_bad_sizes():
    with pytest.raises(GraphError):
        build_dfs_killer(10)  # not divisible by 3
    with pytest.raises(GraphError):
        build_dfs_killer(9)  # cliques would be too small to trap anything
