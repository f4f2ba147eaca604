import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntrav.graph import CostFunction, Graph, GraphError, complete_graph, cost_of, path_graph
from nntrav.simulator import (
    FailureSchedule,
    ScheduleError,
    check_progress,
    check_r1_r2,
    iteration_budget,
    run_sim,
)
from helpers import (
    explored_order,
    random_connected_graph,
    random_schedule,
    validate_nn_traversal,
)


def test_two_node_trace_frozen():
    trace = run_sim(complete_graph(2), 0)
    assert trace.outcome == "terminated"
    assert trace.iterations == 4
    assert [s.dist for s in trace.steps] == [(1, 0), (1, 1), (2, 2), (3, 3)]
    assert [s.moved for s in trace.steps] == [True, False, False, False]
    assert [s.explored for s in trace.steps] == [1, None, None, None]
    assert trace.final.exp == 2
    assert explored_order(trace) == [0, 1]


def test_single_node_stops_once_label_passes_count():
    trace = run_sim(Graph(1, []), 0)
    assert trace.outcome == "terminated"
    assert trace.iterations == 2  # label reaches 2 > exp = 1 on the second round
    assert trace.visited() == {0}


def test_path_walk_explores_in_line_order():
    g = path_graph(6)
    trace = run_sim(g, 0)
    assert trace.outcome == "terminated"
    assert explored_order(trace) == [0, 1, 2, 3, 4, 5]
    assert validate_nn_traversal(CostFunction.hop_metric(g), explored_order(trace)) is None


def test_pre_run_deletion_isolates_start():
    sched = FailureSchedule({0: ((0, 1),)})
    trace = run_sim(complete_graph(2), 0, sched)
    assert trace.pre_deleted == ((0, 1),)
    assert trace.outcome == "terminated"
    assert trace.visited() == {0}
    assert trace.iterations == 2
    first = json.loads(trace.to_json_lines()[0])
    assert first == {"iter": 0, "deleted": [[0, 1]]}


def test_mid_run_deletion_strands_the_tail():
    # cutting (1,2) right after the first move leaves node 2 unreachable
    sched = FailureSchedule({1: ((1, 2),)})
    g = path_graph(3)
    trace = run_sim(g, 0, sched)
    assert trace.steps[0].deleted == ((1, 2),)
    assert trace.outcome == "terminated"
    assert trace.visited() == {0, 1}
    assert check_r1_r2(trace, g) is None
    assert check_progress(trace) is None


def test_terminating_round_skips_its_deletions():
    # schedule far past termination: never applied, trace still clean
    g = complete_graph(2)
    sched = FailureSchedule({4: ((0, 1),)})
    trace = run_sim(g, 0, sched)
    assert trace.outcome == "terminated"
    assert trace.iterations == 4
    assert trace.steps[-1].deleted == ()


def test_budget_exhaustion_is_an_outcome():
    trace = run_sim(complete_graph(3), 0, max_iterations=1)
    assert trace.outcome == "budget-exhausted"
    assert len(trace.steps) == 1


def test_iteration_budget():
    assert iteration_budget(5) == 100
    with pytest.raises(GraphError):
        iteration_budget(0)


def test_schedule_rejects_duplicates_and_bad_keys():
    with pytest.raises(ScheduleError):
        FailureSchedule({0: ((0, 1), (1, 0))})
    with pytest.raises(ScheduleError):
        FailureSchedule({-1: ((0, 1),)})
    with pytest.raises(ScheduleError):
        FailureSchedule({True: ((0, 1),)})


def test_schedule_json_round_trip():
    sched = FailureSchedule({0: ((2, 1),), 3: ((0, 1), (0, 2))})
    again = FailureSchedule.from_json_obj(sched.to_json_obj())
    assert again == sched
    assert again.edges_at(0) == ((1, 2),)  # normalized
    assert max(again.deletions) == 3
    for bad in ({}, {"deletions": {}}, {"deletions": [{"iter": "x", "edges": []}]},
                {"deletions": [{"iter": 1, "edges": [[0]]}]}):
        with pytest.raises(ScheduleError):
            FailureSchedule.from_json_obj(bad)


def test_run_is_deterministic():
    rng = random.Random(17)
    g = random_connected_graph(rng, 9)
    sched = random_schedule(rng, g)
    a = run_sim(g, 3, sched)
    b = run_sim(g, 3, sched)
    assert a.steps == b.steps
    assert a.final == b.final
    assert a.to_json_lines() == b.to_json_lines()


def test_static_run_mimics_greedy_traversal():
    rng = random.Random(23)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 12))
        start = rng.randrange(g.n)
        trace = run_sim(g, start)
        assert trace.outcome == "terminated"
        order = explored_order(trace)
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
    trace = run_sim(g, rng.randrange(n), sched)
    assert trace.outcome == "terminated"
    assert trace.iterations <= iteration_budget(n)
    assert check_r1_r2(trace, g) is None
    assert check_progress(trace) is None


def test_checkers_catch_corrupt_traces():
    g = complete_graph(2)
    trace = run_sim(g, 0)

    def tampered(i, dist):
        steps = list(trace.steps)
        steps[i] = dataclasses.replace(steps[i], dist=dist)
        return dataclasses.replace(trace, steps=steps)

    assert "R1 violated" in check_r1_r2(tampered(1, (0, 0)), g)
    assert "R2 violated" in check_r1_r2(tampered(1, (1, 4)), g)
    assert "no move and no dist increase" in check_progress(tampered(2, (1, 1)))
    downhill = dataclasses.replace(trace.steps[0], dist=(0, 1))
    broken = dataclasses.replace(trace, steps=[downhill] + trace.steps[1:])
    assert "not downhill" in check_progress(broken)


def test_invalid_start_raises():
    with pytest.raises(GraphError):
        run_sim(complete_graph(3), 3)


def test_json_lines_shape():
    trace = run_sim(complete_graph(3), 1)
    lines = trace.to_json_lines()
    summary = json.loads(lines[-1])
    assert summary["outcome"] == "terminated"
    assert summary["visited"] == [0, 1, 2]
    assert summary["explored"] == 3
    body = [json.loads(ln) for ln in lines[:-1]]
    assert [s["iter"] for s in body] == list(range(1, len(body) + 1))
    assert all({"pos_before", "pos_after", "moved", "dist", "deleted"} <= set(s) for s in body)
