"""The greedy walk's step costs: what ``nn_traversal`` reports for each step
against the cost interface re-measuring it, against the nn duel walker, and
the hop BFS work a ``traverse`` spends on them."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import nntrav.graph
from nntrav import cli
from nntrav.games import NnAgent, NullAdversary
from nntrav.graph import CostFunction, cost_of, random_metric_cost
from nntrav.layered_ring import build_lr
from nntrav.nn import lambda_profile, nn_traversal, scripted
from helpers import play_recorded, random_connected_graph


def _instance(kind: str, rng: random.Random) -> CostFunction:
    if kind == "hop-random":
        return CostFunction.hop_metric(random_connected_graph(rng, rng.randint(1, 30)))
    if kind == "hop-ring":
        return CostFunction.hop_metric(build_lr(rng.randint(2, 24), rng.randint(0, 3)).graph)
    if kind == "metric":
        return random_metric_cost(rng.randint(1, 20), rng, rng.randint(1, 30))
    # any symmetric matrix, zero pair costs included: most break the triangle inequality
    n = rng.randint(1, 12)
    mat = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            mat[u][v] = mat[v][u] = rng.randint(0, 40)
    return CostFunction.from_matrix(mat)


def _tie_break(policy: str, n: int, rng: random.Random):
    if policy == "lowest-id":
        return None
    if policy == "random":
        return random.Random(rng.getrandbits(32)).choice
    preference = list(range(n))
    rng.shuffle(preference)
    return scripted(preference)


@given(st.sampled_from(["hop-random", "hop-ring", "metric", "non-metric"]),
       st.sampled_from(["lowest-id", "random", "scripted"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_each_step_cost_is_the_cost_of_that_step(kind, policy, seed):
    rng = random.Random(seed)
    c = _instance(kind, rng)
    order, steps = nn_traversal(c, rng.randrange(c.n), _tie_break(policy, c.n, rng))
    assert steps == [c.cost(order[i], order[i + 1]) for i in range(c.n - 1)]
    assert sum(lambda_profile(steps).values()) == cost_of(order, c)


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_nn_duel_without_deletions_walks_the_greedy_order(n, seed):
    # with no adversary the duel walker is the greedy walk taken one hop at a
    # time: it first visits nodes in nn_traversal's lowest-id order, and it
    # takes exactly as many hops as the greedy steps cost
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    start = rng.randrange(n)
    order, steps = nn_traversal(CostFunction.hop_metric(g), start)
    trace, records = play_recorded(NnAgent(), NullAdversary(), g, start)
    first_visits = [start]
    for record in records:
        if record.to not in first_visits:
            first_visits.append(record.to)
    assert trace.outcome == "halted"
    assert first_visits == order
    assert trace.step_count == sum(steps)


def test_traverse_runs_no_bfs_to_re_measure_its_steps(tmp_path, monkeypatch, capsys):
    # the walk's own search measures each step, so only the certificate
    # (the ring's Hamiltonian sweep, n - 1 steps of distance 1) asks for more
    calls = []
    real = nntrav.graph.hop_distance

    def counted(graph, u, v):
        calls.append((u, v))
        return real(graph, u, v)

    ring = tmp_path / "ring.json"
    assert cli.main(["generate", "lr-pow2", "--m", "3", "--k", "2", "--output", str(ring)]) == 0
    n = json.loads(ring.read_text())["n"]
    assert n > 13  # past the exact oracle, so the certificate is what pins opt
    monkeypatch.setattr(nntrav.graph, "hop_distance", counted)

    assert cli.main(["traverse", "--input", str(ring)]) == 0
    assert json.loads(capsys.readouterr().out)["opt_source"] == "certificate"
    assert len(calls) == n - 1

    calls.clear()
    cli._sidecar_path(str(ring)).unlink()
    assert cli.main(["traverse", "--input", str(ring)]) == 0
    assert json.loads(capsys.readouterr().out)["opt_source"] is None
    assert calls == []
