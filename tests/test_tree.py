import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntrav import cli
from nntrav.graph import (
    CostFunction,
    Graph,
    GraphError,
    complete_graph,
    instance_to_json_obj,
    path_graph,
    random_metric_cost,
    validate_traversal,
)
from nntrav.tree import (
    mst_cost,
    nn_tree,
    nnt_bound_check,
    shuffled_ranks,
)
from helpers import metric_closure, unbounded_ratio_instance

STAR4 = metric_closure(Graph(4, [(0, 1), (0, 2), (0, 3)]))


def test_rank_helpers():
    ranks = shuffled_ranks(20, random.Random(3))
    validate_traversal(ranks, 20)
    assert sorted(ranks) == list(range(20))
    path3 = metric_closure(path_graph(3))
    for bad in ([0, 1], [0, 0, 2], [0, 1, 3]):
        with pytest.raises(GraphError):
            validate_traversal(bad, 3)
        with pytest.raises(GraphError, match="not a permutation"):
            nn_tree(path3, bad)


def test_star_chain_example():
    # on the star's closure, identity ranks chain the leaves together
    tree = nn_tree(STAR4, list(range(4)))
    assert tree.edges == [(0, 1), (1, 2), (2, 3)]
    assert tree.total == 5
    assert tree.root == 3
    assert tree.costs == {(0, 1): 1, (1, 2): 2, (2, 3): 2}
    mst, edges = mst_cost(STAR4)
    assert mst == 3
    assert edges == [(0, 1), (0, 2), (0, 3)]
    assert nnt_bound_check(4, tree.total, mst) == (15, True)
    assert nnt_bound_check(4, 16, 3) == (15, False)  # one past the budget


def test_path_identity_ranks_recover_the_path():
    c = metric_closure(path_graph(4))
    tree = nn_tree(c, list(range(4)))
    assert tree.edges == [(0, 1), (1, 2), (2, 3)]
    assert tree.total == 3 == mst_cost(c)[0]


def _assert_spanning_tree(tree, n):
    assert len(tree.edges) == n - 1
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        ru, rv = find(u), find(v)
        assert ru != rv  # acyclic
        parent[ru] = rv


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_tree_structure_and_greedy_choice(n, seed):
    rng = random.Random(seed)
    c = random_metric_cost(n, rng)
    ranks = shuffled_ranks(n, rng)
    tree = nn_tree(c, ranks)
    _assert_spanning_tree(tree, n)
    assert tree.root == ranks.index(n - 1)
    assert len(tree.attach) == n - 1
    mat = c.as_matrix()
    for v, w in tree.attach.items():
        assert ranks[w] > ranks[v]
        best = min(
            (u for u in range(n) if ranks[u] > ranks[v]),
            key=lambda u: (mat[v][u], u),
        )
        assert w == best
    assert tree.total == sum(mat[u][v] for u, v in tree.edges)


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_mst_is_a_lower_bound_and_budget_holds(n, seed):
    rng = random.Random(seed)
    c = random_metric_cost(n, rng)
    assert c.triangle_violation() is None
    total, mst = nn_tree(c, shuffled_ranks(n, rng)).total, mst_cost(c)[0]
    budget, ok = nnt_bound_check(n, total, mst)
    assert mst <= total <= budget
    assert budget == math.ceil(2 * (1 + math.log(n)) * mst)
    assert ok


def test_mst_matches_exhaustive_minimum():
    rng = random.Random(6)
    for n in (3, 4, 5):
        for _ in range(5):
            c = random_metric_cost(n, rng)
            mat = c.as_matrix()
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            best = None
            for combo in itertools.combinations(pairs, n - 1):
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                joined = 0
                for u, v in combo:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        joined += 1
                if joined == n - 1:
                    w = sum(mat[u][v] for u, v in combo)
                    best = w if best is None else min(best, w)
            assert mst_cost(c)[0] == best


def test_bound_check_rejects_non_metric_costs(tmp_path, monkeypatch, capsys):
    """`tree` runs the bound check only on metric costs: on a non-metric
    matrix it never calls it and reports no budget."""
    c = unbounded_ratio_instance(10)
    assert c.triangle_violation() == (0, 2, 1)
    inst = tmp_path / "four.json"
    inst.write_text(json.dumps(instance_to_json_obj(complete_graph(4), c)))
    monkeypatch.setattr(cli, "nnt_bound_check", None)  # calling it would raise
    assert cli.main(["tree", "--input", str(inst)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["metric"] is False and rep["budget"] is None and rep["bound_ok"] is None
    assert rep["ranks"] == [0, 1, 2, 3]  # the default identity ranks
    # the tree itself is still constructible without the bound claim
    tree = nn_tree(c, list(range(4)))
    _assert_spanning_tree(tree, 4)


def test_single_node_degenerates_cleanly():
    c = CostFunction.from_matrix([[0]])
    tree = nn_tree(c, [0])
    assert tree.edges == [] and tree.total == 0 and tree.root == 0
    assert mst_cost(c) == (0, [])
    assert nnt_bound_check(1, tree.total, 0) == (0, True)
    with pytest.raises(GraphError):
        nnt_bound_check(0, 0, 0)
