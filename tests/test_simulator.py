import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntrav.graph import CostFunction, Graph, GraphError, complete_graph, cost_of, path_graph
from nntrav.simulator import (
    FailureSchedule,
    check_progress,
    check_r1_r2,
    iteration_budget,
    run_sim,
    trace_writer,
)
from helpers import (
    explored_order,
    first_violation,
    random_connected_graph,
    random_schedule,
    run_recorded,
    validate_nn_traversal,
)


def test_two_node_trace_frozen():
    trace, steps = run_recorded(complete_graph(2), 0)
    assert trace.outcome == "terminated"
    assert trace.iterations == 4
    assert [s.dist for s in steps] == [(1, 0), (1, 1), (2, 2), (3, 3)]
    assert [s.moved for s in steps] == [True, False, False, False]
    assert [s.explored for s in steps] == [1, None, None, None]
    assert trace.explored == 2
    assert explored_order(0, steps) == [0, 1]


def test_single_node_stops_once_label_passes_count():
    trace = run_sim(Graph(1, []), 0)
    assert trace.outcome == "terminated"
    assert trace.iterations == 2  # label reaches 2 > exp = 1 on the second round
    assert trace.visited() == {0}


def test_path_walk_explores_in_line_order():
    g = path_graph(6)
    trace, steps = run_recorded(g, 0)
    assert trace.outcome == "terminated"
    assert explored_order(0, steps) == [0, 1, 2, 3, 4, 5]
    assert validate_nn_traversal(CostFunction.hop_metric(g), explored_order(0, steps)) is None


def test_pre_run_deletion_isolates_start():
    sched = FailureSchedule({0: ((0, 1),)})
    trace, steps = run_recorded(complete_graph(2), 0, sched)
    assert trace.outcome == "terminated"
    assert trace.visited() == {0}
    assert trace.iterations == 2
    assert [s.iteration for s in steps] == [0, 1, 2]
    lines = []
    trace_writer(lines.append, 2)(steps[0])
    assert json.loads(lines[0]) == {"iter": 0, "deleted": [[0, 1]]}


def test_mid_run_deletion_strands_the_tail():
    # cutting (1,2) right after the first move leaves node 2 unreachable
    sched = FailureSchedule({1: ((1, 2),)})
    g = path_graph(3)
    trace, steps = run_recorded(g, 0, sched)
    assert steps[0].deleted == ((1, 2),)
    assert trace.outcome == "terminated"
    assert trace.visited() == {0, 1}
    assert first_violation(check_r1_r2(g), steps) is None
    assert first_violation(check_progress(g.n), steps) is None


def test_terminating_round_skips_its_deletions():
    # schedule far past termination: never applied, trace still clean
    g = complete_graph(2)
    sched = FailureSchedule({4: ((0, 1),)})
    trace, steps = run_recorded(g, 0, sched)
    assert trace.outcome == "terminated"
    assert trace.iterations == 4
    assert steps[-1].deleted == ()


def test_budget_exhaustion_is_an_outcome():
    trace, steps = run_recorded(complete_graph(3), 0, max_iterations=1)
    assert trace.outcome == "budget-exhausted"
    assert len(steps) == 1
    # a budget of exactly the terminating round suffices; one round less does not
    g = path_graph(6)
    rounds = run_sim(g, 0).iterations
    trace, steps = run_recorded(g, 0, max_iterations=rounds)
    assert trace.outcome == "terminated"
    assert trace.iterations == len(steps) == rounds
    trace, steps = run_recorded(g, 0, max_iterations=rounds - 1)
    assert trace.outcome == "budget-exhausted"
    assert trace.iterations == len(steps) == rounds - 1


def test_iteration_budget():
    assert iteration_budget(5) == 100
    with pytest.raises(GraphError):
        iteration_budget(0)


def test_schedule_rejects_duplicates_and_bad_keys():
    with pytest.raises(GraphError, match=r"edge \(0, 1\) scheduled for deletion twice"):
        FailureSchedule({0: ((0, 1), (1, 0))})
    with pytest.raises(GraphError, match="iteration keys must be integers >= 0, got -1"):
        FailureSchedule({-1: ((0, 1),)})
    with pytest.raises(GraphError, match="iteration keys must be integers >= 0, got True"):
        FailureSchedule({True: ((0, 1),)})


def test_schedule_json_round_trip():
    sched = FailureSchedule({0: ((2, 1),), 3: ((0, 1), (0, 2))})
    again = FailureSchedule.from_json_obj(sched.to_json_obj())
    assert again.deletions == sched.deletions
    assert again.edges_at(0) == ((1, 2),)  # normalized
    assert max(again.deletions) == 3
    for bad, text in (({}, "schedule JSON must be"), ({"deletions": {}}, "schedule JSON must be"),
                      ({"deletions": [{"iter": "x", "edges": []}]}, '"iter" must be an integer'),
                      ({"deletions": [{"iter": 1, "edges": [[0]]}]}, "edge entries must be pairs")):
        with pytest.raises(GraphError, match=text):
            FailureSchedule.from_json_obj(bad)


def test_run_is_deterministic():
    rng = random.Random(17)
    g = random_connected_graph(rng, 9)
    sched = random_schedule(rng, g)
    a, a_steps = run_recorded(g, 3, sched)
    b, b_steps = run_recorded(g, 3, sched)
    assert a_steps == b_steps
    assert (a.vis, a.dist, a.pos, a.explored, a.iterations) == (
        b.vis, b.dist, b.pos, b.explored, b.iterations)
    assert a.to_json_lines() == b.to_json_lines()


def test_static_run_mimics_greedy_traversal():
    rng = random.Random(23)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 12))
        start = rng.randrange(g.n)
        trace, steps = run_recorded(g, start)
        assert trace.outcome == "terminated"
        order = explored_order(start, steps)
        hop = CostFunction.hop_metric(g)
        assert validate_nn_traversal(hop, order) is None
        # static termination: within 4*cost + n rounds
        assert trace.iterations <= 4 * cost_of(order, hop) + g.n


@given(st.integers(2, 20), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_invariants_hold_under_failures(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    sched = random_schedule(rng, g)
    trace = run_sim(g, rng.randrange(n))
    assert trace.outcome == "terminated"
    assert trace.iterations <= iteration_budget(n)
    trace, steps = run_recorded(g, rng.randrange(n), sched)
    assert trace.outcome == "terminated"
    assert trace.iterations <= iteration_budget(n)
    assert first_violation(check_r1_r2(g), steps) is None
    assert first_violation(check_progress(g.n), steps) is None


def test_checkers_catch_corrupt_traces():
    g = complete_graph(2)
    _, steps = run_recorded(g, 0)

    def tampered(i, dist):
        return [s._replace(dist=dist) if j == i else s for j, s in enumerate(steps)]

    assert first_violation(check_r1_r2(g), tampered(1, (0, 0))) == (
        "R1 violated at iteration 2: dist[0] decreased 1 -> 0")
    assert first_violation(check_r1_r2(g), tampered(1, (1, 4))) == (
        "R2 violated at iteration 2: dist[1] = 4 exceeds true distance 3")
    assert first_violation(check_progress(g.n), tampered(2, (1, 1))) == (
        "no move and no dist increase at iteration 3")
    assert first_violation(check_progress(g.n), tampered(0, (0, 1))) == (
        "move at iteration 1 was not downhill: 0 -> 1")


def test_invalid_start_raises():
    with pytest.raises(GraphError):
        run_sim(complete_graph(3), 3)


def test_json_lines_shape():
    trace, steps = run_recorded(complete_graph(3), 1)
    lines = []
    write = trace_writer(lines.append, 3)
    for step in steps:
        write(step)
    lines.extend(trace.to_json_lines())
    summary = json.loads(lines[-1])
    assert summary["outcome"] == "terminated"
    assert summary["visited"] == [0, 1, 2]
    assert summary["explored"] == 3
    body = [json.loads(ln) for ln in lines[:-1]]
    assert [s["iter"] for s in body] == list(range(1, len(body) + 1))
    assert all({"pos_before", "pos_after", "moved", "dist", "deleted"} <= set(s) for s in body)
