import itertools
import math
import random
import sys
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntrav.graph import (
    CostFunction,
    Graph,
    GraphError,
    complete_graph,
    cost_of,
    path_graph,
    random_metric_cost,
    validate_traversal,
)
from nntrav import nn
from nntrav.nn import (
    OPT_ORACLE_LIMIT,
    _nearest_unvisited,
    aspect_ratio_bound,
    lambda_profile,
    log_ceiling,
    nn_traversal,
    nn_upper_bound,
    opt_traversal,
    scripted,
)
from nntrav.tree import nnt_bound_check
from helpers import (
    metric_closure,
    random_connected_graph,
    unbounded_ratio_instance,
    validate_nn_traversal,
)

PATH4 = metric_closure(path_graph(4))


def test_greedy_walk_on_path():
    # start in the middle: the id-1 node walks to 0 first, then crosses back
    order, steps = nn_traversal(PATH4, 1)
    assert order == [1, 0, 2, 3]
    assert steps == [1, 2, 1]
    assert cost_of(order, PATH4) == 4


def test_greedy_walk_hop_vs_matrix_agree():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 9)
        g = random_connected_graph(rng, n)
        hop = CostFunction.hop_metric(g)
        s = rng.randrange(n)
        assert nn_traversal(hop, s) == nn_traversal(metric_closure(g), s)


def test_tied_candidates_ascend_whatever_the_set_order():
    # nn_traversal's own unvisited set iterates in ascending order in CPython,
    # but {9, 2, 5} iterates as 9, 2, 5: the tied list must still ascend
    for c in (metric_closure(complete_graph(10)), CostFunction.hop_metric(complete_graph(10))):
        assert _nearest_unvisited(c, 0, {9, 2, 5}) == (1, [2, 5, 9])


def test_validator_accepts_greedy_and_pins_first_bad_step():
    assert validate_nn_traversal(PATH4, [1, 0, 2, 3]) is None
    assert validate_nn_traversal(PATH4, [0, 2, 1, 3]) == 1
    hop = CostFunction.hop_metric(path_graph(4))
    assert validate_nn_traversal(hop, [0, 2, 1, 3]) == 1
    with pytest.raises(GraphError):
        validate_nn_traversal(PATH4, [0, 1, 2])


def test_validator_is_tiebreak_agnostic():
    c = metric_closure(complete_graph(4))
    for perm in itertools.permutations(range(4)):
        assert validate_nn_traversal(c, list(perm)) is None


def test_invalid_start_raises():
    with pytest.raises(GraphError):
        nn_traversal(PATH4, 4)


def test_disconnected_hop_walk_raises():
    c = CostFunction.hop_metric(Graph(3, [(0, 1)]))
    with pytest.raises(GraphError, match="no unvisited node reachable from 1"):
        nn_traversal(c, 0)


def test_lambda_profile_path_example():
    prof = lambda_profile([1, 2, 1])  # the steps of [1, 0, 2, 3] on PATH4
    assert prof == {1: 3, 2: 1}
    assert sum(prof.values()) == 4
    assert prof.get(1, 0) == 3 and prof.get(2, 0) == 1
    assert prof.get(3, 0) == 0


def test_lambda_profile_rejects_a_cost_past_the_index_range():
    # a histogram of sys.maxsize + 1 slots cannot be built; the error names the cost
    with pytest.raises(GraphError, match=f"step cost {sys.maxsize} "):
        lambda_profile([sys.maxsize])


def test_lambda_profile_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(nn, "STEP_COST_LIMIT", 8)
    assert lambda_profile([8, 1]) == {j: 1 + (j == 1) for j in range(1, 9)}
    with pytest.raises(GraphError, match="step cost 9 is above the step-cost profile's limit of 8"):
        lambda_profile([1, 9])


def test_lambda_profile_single_step():
    prof = lambda_profile([5])
    assert prof == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
    assert max(prof, default=0) == 5


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_lambda_profile_invariants(n, seed):
    rng = random.Random(seed)
    c = random_metric_cost(n, rng)
    order, steps = nn_traversal(c, rng.randrange(n))
    prof = lambda_profile(steps)
    assert sum(prof.values()) == cost_of(order, c)
    assert prof.get(1, 0) <= n - 1
    levels = sorted(prof)
    for a, b in zip(levels, levels[1:]):
        assert prof[a] >= prof[b]  # nonincreasing in the level


def _levels_oracle(steps: list[int]) -> dict[int, int]:
    """lambda_profile's counts by its former loop: one entry per level j <= s
    for every step cost s, so O(sum of the step costs)."""
    counts: dict[int, int] = {}
    for s in steps:
        for j in range(1, s + 1):
            counts[j] = counts.get(j, 0) + 1
    return counts


@given(st.lists(st.one_of(st.just(0), st.integers(0, 12), st.integers(1000, 3000)), max_size=10))
@settings(max_examples=150, deadline=None)
def test_lambda_profile_matches_the_per_level_loop(steps):
    prof = lambda_profile(steps)
    # same levels, same counts, and the same ascending key order
    assert list(prof.items()) == list(_levels_oracle(steps).items())


@dataclass
class RoutePartition:
    """Consecutive blocks of a route; block boundaries are start indices plus n."""

    parts: list[list[int]]
    cuts: list[int]


def partition_route(order: Sequence[int], j: int, c: CostFunction) -> RoutePartition:
    """Split a route into consecutive blocks accumulating < j cost inside each.

    Walking from a block's first node, costs accumulate until a step pushes the
    running total to >= j; the block ends just before that step completes, so
    every within-block prefix sums to < j.  Under the triangle inequality any
    two nodes of one block then lie at cost < j from each other, and the block
    count k satisfies (k-1)*j <= total route cost.
    """
    validate_traversal(order, c.n)
    if j < 1:
        raise GraphError(f"threshold must be >= 1, got {j}")
    if not c.triangle_violation() is None:
        raise GraphError("route partitioning needs the triangle inequality")
    n = len(order)
    cuts = [0]
    acc = 0
    for t in range(n - 1):
        acc += c.cost(order[t], order[t + 1])
        if acc >= j:
            cuts.append(t + 1)
            acc = 0
    cuts.append(n)
    parts = [list(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    return RoutePartition(parts, cuts)


def test_partition_examples():
    part = partition_route([0, 1, 2, 3], 2, PATH4)
    assert part.parts == [[0, 1], [2, 3]]
    assert part.cuts == [0, 2, 4]
    assert partition_route([0, 1, 2, 3], 1, PATH4).parts == [[0], [1], [2], [3]]
    assert partition_route([0, 1, 2, 3], 99, PATH4).parts == [[0, 1, 2, 3]]


def test_partition_rejects_bad_inputs():
    with pytest.raises(GraphError):
        partition_route([0, 1, 2, 3], 0, PATH4)
    with pytest.raises(GraphError):
        partition_route([3, 2, 0, 1], 2, unbounded_ratio_instance(10))


@given(st.integers(4, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_partition_blocks_have_small_internal_cost(n, seed):
    c = random_metric_cost(n, random.Random(seed))
    opt, route = opt_traversal(c)
    for j in range(1, opt + 2):
        part = partition_route(route, j, c)
        # triangle inequality: within a block, all pairs sit at cost < j
        for block in part.parts:
            for u in block:
                for v in block:
                    if u != v:
                        assert c.cost(u, v) < j
        assert (len(part.parts) - 1) * j <= opt


@given(st.integers(4, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_profile_bounded_by_block_count(n, seed):
    # each greedy step of cost >= j leaves the current block of the optimal
    # route's j-partition for good, so at most (block count - 1) such steps
    c = random_metric_cost(n, random.Random(seed))
    opt, route = opt_traversal(c)
    for start in range(n):
        prof = lambda_profile(nn_traversal(c, start)[1])
        for j in range(1, max(prof, default=0) + 1):
            k = len(partition_route(route, j, c).parts)
            assert prof.get(j, 0) <= k - 1


@given(st.integers(4, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_profile_bounded_by_opt_over_level(n, seed):
    c = random_metric_cost(n, random.Random(seed))
    opt, _ = opt_traversal(c)
    for start in range(n):
        prof = lambda_profile(nn_traversal(c, start)[1])
        assert max(prof, default=0) <= opt
        for j, cnt in prof.items():
            assert cnt <= opt // j


def test_profile_bound_needs_the_triangle_inequality():
    # negative control: the four-point violator exceeds floor(OPT/j) above OPT
    c = unbounded_ratio_instance(10)
    _, steps = nn_traversal(c, 3, scripted([3, 2, 0, 1]))
    prof = lambda_profile(steps)
    opt, _ = opt_traversal(c)
    assert opt == 5
    assert max(prof, default=0) == 10 > opt


def brute_force_opt(c):
    n = c.n
    best = None
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue  # each route equals its reverse in cost
        w = cost_of(perm, c)
        if best is None or w < best:
            best = w
    return best


def test_opt_oracle_matches_brute_force():
    rng = random.Random(99)
    for n in (2, 3, 4, 5, 6, 7):
        for _ in range(3):
            c = random_metric_cost(n, rng)
            cost, order = opt_traversal(c)
            assert cost == brute_force_opt(c)
            assert cost_of(order, c) == cost
    c = unbounded_ratio_instance(10)
    cost, order = opt_traversal(c)
    assert cost == 5 == brute_force_opt(c)


def test_opt_oracle_edges():
    assert opt_traversal(CostFunction.from_matrix([[0]])) == (0, [0])
    with pytest.raises(GraphError):
        opt_traversal(CostFunction.hop_metric(complete_graph(OPT_ORACLE_LIMIT + 1)))


def test_nn_upper_bound_values():
    assert nn_upper_bound(2, 1) == 1
    assert nn_upper_bound(4, 3) == 7
    assert nn_upper_bound(35, 34) == 154
    with pytest.raises(GraphError):
        nn_upper_bound(1, 0)
    with pytest.raises(GraphError):
        nn_upper_bound(4, -1)


def test_aspect_ratio_bound_values():
    wide = CostFunction.from_matrix([[0, 1, 4], [1, 0, 4], [4, 4, 0]])
    assert wide.pair_cost_extremes() == (1, 4)
    assert aspect_ratio_bound(10, 1, 4) == 24
    # computes even when the triangle inequality fails
    assert unbounded_ratio_instance(10).pair_cost_extremes() == (1, 10)
    assert aspect_ratio_bound(5, 1, 10) == 17
    # unit aspect collapses the bound to the optimal cost itself
    hop = CostFunction.hop_metric(complete_graph(6))
    assert hop.pair_cost_extremes() == (1, 1)
    assert aspect_ratio_bound(5, 1, 1) == 5
    zero = CostFunction.from_matrix([[0, 0], [0, 0]])
    assert zero.pair_cost_extremes() == (0, 0)
    with pytest.raises(GraphError):
        aspect_ratio_bound(1, 0, 0)
    with pytest.raises(GraphError):
        aspect_ratio_bound(-1, 1, 4)


def _same_as_float_expression(bound, former) -> None:
    """``bound()`` gives what ``former()``, the float expression the bound
    computed before the bounds shared log_ceiling, gave: the same int, or
    GraphError where the expression overflowed."""
    try:
        expected = former()
    except OverflowError:
        with pytest.raises(GraphError, match="too large for the float bound"):
            bound()
    else:
        assert bound() == expected


# small values, values either side of 2**53 (where floats stop holding every
# int), and costs past the float range (2**1024), which overflow; node counts
# stay within it
NEAR_2_53 = st.integers(2**53 - 10**3, 2**53 + 10**3)
COSTS = st.one_of(st.integers(0, 10**6), NEAR_2_53, st.integers(0, 2**1100))
COUNTS = st.one_of(st.integers(2, 10**6), NEAR_2_53, st.integers(2, 2**1000))


@given(COUNTS, COSTS)
@settings(max_examples=200, deadline=None)
def test_nn_upper_bound_is_its_former_float_expression(n, opt):
    _same_as_float_expression(lambda: nn_upper_bound(n, opt),
                              lambda: math.ceil(opt * (1.0 + math.log(n - 1))))


@given(COSTS, COSTS.filter(bool), COSTS)
@settings(max_examples=200, deadline=None)
def test_aspect_ratio_bound_is_its_former_float_expression(opt, lo, span):
    hi = lo + span
    _same_as_float_expression(lambda: aspect_ratio_bound(opt, lo, hi),
                              lambda: math.ceil(opt * (1.0 + math.log(hi / lo))))


@given(COUNTS, COSTS)
@settings(max_examples=200, deadline=None)
def test_nnt_budget_is_its_former_float_expression(n, mst):
    _same_as_float_expression(lambda: nnt_bound_check(n, 0, mst)[0],
                              lambda: math.ceil(2 * (1 + math.log(n)) * mst))


def test_log_ceiling_values_and_overflow():
    assert log_ceiling(34, 34) == 154 == nn_upper_bound(35, 34)
    assert log_ceiling(10, 4, 1) == 24 == aspect_ratio_bound(10, 1, 4)
    assert log_ceiling(5, 7, 7) == 5
    # past 2**53 the float ceiling is not exact: opt = 2**60 + 1 becomes 2**60
    assert log_ceiling(2**60 + 1, 1) == 2**60
    for args in ((10**400, 3), (10**308, 10**10), (1, 10**400), (1, 10**400, 3)):
        with pytest.raises(GraphError, match="too large for the float bound"):
            log_ceiling(*args)
    with pytest.raises(GraphError):
        nnt_bound_check(5, 0, 10**308)
    with pytest.raises(GraphError, match="nonnegative"):
        log_ceiling(-1, 3)


def test_scripted_ties_reproduce_target_route():
    c = unbounded_ratio_instance(10)
    assert nn_traversal(c, 3, scripted([3, 2, 0, 1]))[0] == [3, 2, 0, 1]
    assert cost_of([3, 2, 0, 1], c) == 13
    # a preference that names neither tied candidate is a hard error
    with pytest.raises(GraphError):
        nn_traversal(c, 3, scripted([3, 2]))


def test_seeded_random_ties_are_reproducible():
    c = metric_closure(complete_graph(9))
    a, _ = nn_traversal(c, 0, random.Random(42).choice)
    b, _ = nn_traversal(c, 0, random.Random(42).choice)
    assert a == b
    assert validate_nn_traversal(c, a) is None
    seen = {tuple(nn_traversal(c, 0, random.Random(s).choice)[0]) for s in range(30)}
    assert len(seen) > 1  # the seed actually matters on an all-ties instance


def test_lowest_id_is_the_default():
    c = metric_closure(complete_graph(5))
    expected = ([2, 0, 1, 3, 4], [1, 1, 1, 1])
    assert nn_traversal(c, 2) == nn_traversal(c, 2, lambda tied: tied[0]) == expected


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_greedy_output_always_validates(n, seed):
    rng = random.Random(seed)
    c = random_metric_cost(n, rng)
    order, _ = nn_traversal(c, rng.randrange(n))
    assert validate_nn_traversal(c, order) is None


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_greedy_cost_within_log_budget(n, seed):
    rng = random.Random(seed)
    c = random_metric_cost(n, rng)
    opt, _ = opt_traversal(c)
    bound = nn_upper_bound(n, opt)
    for start in range(n):
        assert cost_of(nn_traversal(c, start)[0], c) <= bound
