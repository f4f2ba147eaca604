import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntrav.graph import (
    CostFunction,
    Graph,
    GraphError,
    UnreachableError,
    bfs_distances,
    bfs_levels,
    bit_levels,
    check_triangle,
    complete_graph,
    cost_of,
    graph_to_dot,
    hop_distance,
    instance_from_json_obj,
    instance_to_json_obj,
    nearest_of,
    normalize_edge,
    path_graph,
    random_metric_cost,
    validate_traversal,
)
from helpers import metric_closure, random_connected_graph, unbounded_ratio_instance


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert 1 in g.adjacency[0] and 0 in g.adjacency[1]
    assert 2 not in g.adjacency[0]
    assert len(g.adjacency[1]) == 2
    assert g.adjacency[1] == {0, 2}
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_graph_rejects_garbage():
    with pytest.raises(GraphError):
        Graph(0, [])
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])  # self-loop
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])  # out of range
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate under normalization


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)


def test_delete_edge_and_copy():
    g = path_graph(3)
    h = g.copy()
    g.delete_edge(0, 1)
    assert 1 not in g.adjacency[0]
    assert 1 in h.adjacency[0]  # copies do not alias
    with pytest.raises(GraphError):
        g.delete_edge(0, 1)  # already gone


def test_delete_edges_normalizes_and_deletes_in_order():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.delete_edges([(1, 0), [3, 2]]) == ((0, 1), (2, 3))
    assert g.edges() == [(0, 3), (1, 2)] and g.edge_count == 2
    with pytest.raises(GraphError, match=r"edge \(0, 2\) is not in the graph"):
        g.delete_edges([(0, 3), (2, 0)])
    assert g.edges() == [(1, 2)]  # the cuts before the bad one landed
    assert g.delete_edges(()) == ()


def bitsets(graph):
    return [sum(1 << w for w in nbrs) for nbrs in graph.adjacency]


@given(st.integers(1, 14), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_masks_follow_deletions_and_copies(n, seed):
    """Built before, between or after random deletions, the neighbor bitsets
    equal the adjacency sets, in the graph and in each copy, and copies do
    not alias; the bitset BFS yields the set-based BFS levels."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    cut = g.edges()
    rng.shuffle(cut)
    cut = cut[:rng.randint(0, len(cut))]
    build_at = rng.randint(0, len(cut))
    copies = []
    for i, (u, v) in enumerate(cut):
        if i == build_at:
            assert g.masks == bitsets(g)
        if rng.random() < 0.3:
            copies.append((g.copy(), bitsets(g)))
        g.delete_edge(u, v)
    assert g.masks == bitsets(g)
    source = rng.randrange(n)
    assert [*bit_levels(g, source)] == [sum(1 << v for v in level)
                                        for level in bfs_levels(g, (source,))]
    h = g.copy()
    assert h.masks == bitsets(h) == bitsets(g)
    if h.edge_count:
        h.delete_edge(*h.edges()[0])
        assert g.masks == bitsets(g) != h.masks == bitsets(h)
    for c, before in copies:
        assert c.masks == bitsets(c) == before


def test_component_and_connectivity():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.component(0) == {0, 1, 2}
    assert g.component(4) == {3, 4}
    assert len(g.component(0)) < g.n
    assert len(complete_graph(4).component(0)) == 4


def test_bfs_distances_sentinel_for_unreachable():
    g = Graph(4, [(0, 1)])
    d = bfs_distances(g, 0)
    assert d == [0, 1, 5, 5]  # n + 1 marks unreachable
    assert hop_distance(g, 0, 3) is None
    assert hop_distance(g, 0, 1) == 1


@pytest.mark.parametrize("sources, bad", [
    ((4,), 4),
    ((True,), True),
    ((0, 4), 4),
    ((-1, 0), -1),
    ((2, True), True),
    ((1, 1.0), 1.0),  # equal to a valid id, so only a type check catches it
    ((0, [1]), [1]),
    ((3, 2, 7, -5), 7),
    ((0, "1"), "1"),
    ((5, 1.5), 5),  # a bad type later does not hide an earlier bad range
])
def test_bfs_sources_name_the_first_bad_id(sources, bad):
    g = path_graph(4)
    with pytest.raises(GraphError) as err:
        bfs_distances(g, *sources)
    assert str(err.value) == f"invalid node id {bad!r} for a graph on 4 nodes"


def test_bfs_sources_deduplicate():
    g = path_graph(4)
    assert bfs_distances(g, 3, 0, 3, 0) == [0, 1, 1, 0]
    assert bfs_distances(g) == [5, 5, 5, 5]


def test_nearest_of_returns_all_tied_targets_sorted():
    g = path_graph(5)
    hit = nearest_of(g, 2, {0, 4, 1})
    assert hit == (1, [1])
    hit = nearest_of(g, 2, {0, 4})
    assert hit == (2, [0, 4])
    assert nearest_of(g, 0, set()) is None


def test_hop_metric_vs_closure_agree():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        hop = CostFunction.hop_metric(g)
        closed = metric_closure(g)
        assert hop.as_matrix() == closed.as_matrix()
        assert closed.triangle_violation() is None


def test_hop_metric_requires_graph():
    with pytest.raises(GraphError):
        CostFunction.hop_metric(metric_closure(path_graph(3)))


def test_matrix_validation():
    with pytest.raises(GraphError):
        CostFunction.from_matrix([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(GraphError):
        CostFunction.from_matrix([[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(GraphError):
        CostFunction.from_matrix([[0, -1], [-1, 0]])  # negative
    with pytest.raises(GraphError):
        CostFunction.from_matrix([[0, 1], [1]])  # ragged


def test_zero_cost_pairs_are_legal():
    c = CostFunction.from_matrix([[0, 0, 2], [0, 0, 2], [2, 2, 0]])
    assert c.cost(0, 1) == 0
    assert c.pair_cost_extremes() == (0, 2)


def test_check_triangle_finds_least_violation():
    c = unbounded_ratio_instance(10)
    # c(0,1)=10 > c(0,2)+c(2,1)=4: reported as (u, w, v) with w the witness
    assert check_triangle(c) == (0, 2, 1)
    assert c.triangle_violation() is not None
    assert check_triangle(metric_closure(path_graph(4))) is None


def test_unbounded_ratio_instance_is_metric_for_small_x():
    assert unbounded_ratio_instance(4).triangle_violation() is None
    assert unbounded_ratio_instance(5).triangle_violation() is not None
    with pytest.raises(GraphError):
        unbounded_ratio_instance(-1)


def test_disconnected_hop_metric_raises():
    g = Graph(3, [(0, 1)])
    c = CostFunction.hop_metric(g)
    with pytest.raises(UnreachableError):
        c.cost(0, 2)
    with pytest.raises(UnreachableError):
        c.as_matrix()


def test_validate_traversal():
    validate_traversal([2, 0, 1], 3)
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(GraphError):
            validate_traversal(bad, 3)


def test_cost_of():
    c = metric_closure(path_graph(4))
    assert cost_of([1, 0, 2, 3], c) == 4
    assert cost_of([0], CostFunction.from_matrix([[0]])) == 0


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_metric_cost_is_metric(n, seed):
    c = random_metric_cost(n, random.Random(seed))
    assert c.triangle_violation() is None
    mat = c.as_matrix()
    lo, hi = c.pair_cost_extremes()
    assert 1 <= lo <= hi <= 9
    assert all(mat[u][u] == 0 for u in range(n))


def test_instance_json_round_trip_graph_only():
    g = random_connected_graph(random.Random(3), 7)
    obj = instance_to_json_obj(g)
    back, cost = instance_from_json_obj(obj)
    assert back == g
    assert cost is None


def test_instance_json_round_trip_with_weights():
    c = unbounded_ratio_instance(10)
    obj = instance_to_json_obj(complete_graph(4), c)
    back, cost2 = instance_from_json_obj(obj)
    assert back == complete_graph(4)
    assert cost2.as_matrix() == c.as_matrix()


def test_instance_json_rejects_partial_weights():
    obj = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "weights": [[0, 1, 5]]}
    with pytest.raises(GraphError):
        instance_from_json_obj(obj)
    obj["weights"] = [[0, 1, 5], [0, 1, 5], [1, 2, 1], [0, 2, 1]]
    with pytest.raises(GraphError):
        instance_from_json_obj(obj)


def test_dot_output_shape():
    dot = graph_to_dot(path_graph(3))
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
    assert dot.rstrip().endswith("}")


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bfs_kernel_consumers_agree(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    for u, v in g.edges():
        if rng.random() < 0.3:
            g.delete_edge(u, v)
    sentinel = n + 1
    rows = [bfs_distances(g, s) for s in range(n)]
    sources = rng.sample(range(n), rng.randint(0, n))
    assert bfs_distances(g, *sources) == [
        min((rows[s][v] for s in sources), default=sentinel) for v in range(n)]
    cost = CostFunction.hop_metric(g)
    for u, row in enumerate(rows):
        assert row[u] == 0
        assert g.component(u) == {v for v in range(n) if row[v] < sentinel}
        for v in range(n):
            assert hop_distance(g, u, v) == (row[v] if row[v] < sentinel else None)
        targets = set(rng.sample(range(n), rng.randint(0, n)))
        near = min((row[v] for v in targets if v != u), default=sentinel)
        tied = sorted(v for v in targets if v != u and row[v] == near)
        assert nearest_of(g, u, targets) == (None if near == sentinel else (near, tied))
        if sentinel in row:
            with pytest.raises(UnreachableError):
                cost.row(u)
        else:
            assert cost.row(u) == row


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_hop_metric_triangle_always_holds(n, seed):
    g = random_connected_graph(random.Random(seed), n)
    assert check_triangle(CostFunction.hop_metric(g)) is None
