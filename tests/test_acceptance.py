"""Acceptance gate: one check per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

from nntrav.games import (
    CliqueAdversary,
    DfsRestartAgent,
    NnAgent,
    ScheduleAdversary,
    clique_stage_lengths,
    growth_fit,
    killer_script,
    play_game,
)
from nntrav.graph import (
    CostFunction,
    check_triangle,
    complete_graph,
    cost_of,
    path_graph,
    random_metric_cost,
)
from nntrav.layered_ring import (
    build_dfs_killer,
    build_lr,
    canonical_nn_route,
    pad_to_n,
    vertex_count_formula,
)
from nntrav.nn import lambda_profile, nn_traversal, nn_upper_bound, opt_traversal, scripted
from nntrav.simulator import check_progress, check_r1_r2, iteration_budget
from nntrav.tree import mst_cost, nn_tree, nnt_bound_check, shuffled_ranks
from helpers import (
    explored_order,
    first_violation,
    random_connected_graph,
    random_schedule,
    run_recorded,
    unbounded_ratio_instance,
    validate_nn_traversal,
)

MASTER_SEED = 20260815


@contextlib.contextmanager
def criterion(num):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL")
        raise
    print(f"[acceptance] criterion {num}: PASS")


def _family_instances():
    """Hop metrics of every generated family member with at most 13 nodes."""
    out = []
    for nu in range(2, 13):
        for k in range(0, 4):
            lr = build_lr(nu, k)
            if lr.n > 13:
                continue
            out.append(CostFunction.hop_metric(lr.graph))
            if k >= 1:
                for n in range(lr.n, min(13, lr.n + k + 1) + 1):
                    out.append(CostFunction.hop_metric(pad_to_n(nu, k, n).graph))
    for n in range(2, 14):
        out.append(CostFunction.hop_metric(complete_graph(n)))
        out.append(CostFunction.hop_metric(path_graph(n)))
    out.append(CostFunction.hop_metric(build_dfs_killer(12).graph))
    return out


_INSTANCE_SET = None


def instance_set():
    """500 seeded random metrics (4 <= n <= 10) plus all small family members."""
    global _INSTANCE_SET
    if _INSTANCE_SET is None:
        rng = random.Random(MASTER_SEED)
        instances = [random_metric_cost(rng.randint(4, 10), rng) for _ in range(500)]
        instances.extend(_family_instances())
        _INSTANCE_SET = [(c, opt_traversal(c)[0]) for c in instances]
    return _INSTANCE_SET


def test_criterion_1_layered_ring_counting():
    with criterion(1):
        t0 = time.perf_counter()
        for m in range(2, 11):
            for k in range(1, m):
                assert build_lr(1 << m, k).n == vertex_count_formula(m, k)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_canonical_route_cost():
    with criterion(2):
        for m in range(2, 11):
            for k in range(1, m):
                lr = build_lr(1 << m, k)
                hop = CostFunction.hop_metric(lr.graph)
                route = canonical_nn_route(lr)
                assert validate_nn_traversal(hop, route) is None
                assert cost_of(route, hop) == (k + 1) * ((1 << m) + 1) - 1
        fig2 = build_lr(16, 2)
        assert cost_of(canonical_nn_route(fig2), CostFunction.hop_metric(fig2.graph)) == 50


def test_criterion_3_log_bound_on_greedy_cost():
    with criterion(3):
        t0 = time.perf_counter()
        for c, opt in instance_set():
            bound = nn_upper_bound(c.n, opt)
            for start in range(c.n):
                assert cost_of(nn_traversal(c, start)[0], c) <= bound
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_step_profile_accounting():
    with criterion(4):
        for c, opt in instance_set():
            for start in range(c.n):
                order, steps = nn_traversal(c, start)
                prof = lambda_profile(steps)
                assert sum(prof.values()) == cost_of(order, c)
                assert max(prof, default=0) <= opt
                for j, cnt in prof.items():
                    assert cnt <= opt // j


def test_criterion_5_four_point_reproduction():
    with criterion(5):
        c = unbounded_ratio_instance(10)
        opt, _ = opt_traversal(c)
        assert opt == 5
        order, _ = nn_traversal(c, 3, scripted([3, 2, 0, 1]))
        assert cost_of(order, c) == 13  # x + 3
        assert check_triangle(c) == (0, 2, 1)


def test_criterion_6_rounds_terminate_with_invariants():
    with criterion(6):
        t0 = time.perf_counter()
        rng = random.Random(MASTER_SEED + 6)
        for _ in range(300):
            n = rng.randint(2, 60)
            g = random_connected_graph(rng, n)
            sched = random_schedule(rng, g)
            trace, steps = run_recorded(g, rng.randrange(n), sched)
            assert trace.outcome == "terminated"
            assert trace.iterations <= iteration_budget(n)
            assert first_violation(check_r1_r2(g), steps) is None
            assert first_violation(check_progress(n), steps) is None
        assert time.perf_counter() - t0 < 120.0


def test_criterion_7_static_runs_are_greedy():
    with criterion(7):
        rng = random.Random(MASTER_SEED + 7)
        for _ in range(100):
            n = rng.randint(2, 40)
            g = random_connected_graph(rng, n)
            trace, steps = run_recorded(g, rng.randrange(n))
            assert trace.outcome == "terminated"
            assert validate_nn_traversal(
                CostFunction.hop_metric(g), explored_order(trace, steps)) is None


def test_criterion_8_clique_lower_bound():
    with criterion(8):
        for n in range(4, 13):
            for agent in (NnAgent(), DfsRestartAgent()):
                trace = play_game(agent, CliqueAdversary(), complete_graph(n), 0)
                assert trace.outcome == "halted"
                assert trace.step_count >= n * (n - 1) // 2
        k4 = play_game(NnAgent(), CliqueAdversary(), complete_graph(4), 0)
        stages = clique_stage_lengths(k4)
        assert stages == [2, 1, 3]
        assert sum(stages) == 6 == k4.step_count


def test_criterion_9_scripted_trap_growth():
    with criterion(9):
        t0 = time.perf_counter()
        sizes, steps = [], []
        for n in (12, 24, 48, 96):
            trap = build_dfs_killer(n)
            script = killer_script(trap)
            trace = play_game(
                DfsRestartAgent(), ScheduleAdversary(script), trap.graph, 0, 4 * n**3)
            assert trace.outcome == "halted"
            sizes.append(n)
            steps.append(trace.step_count)
        assert growth_fit(sizes, steps) >= 2.5
        assert time.perf_counter() - t0 < 60.0


def test_criterion_10_rank_tree_bound():
    with criterion(10):
        rng = random.Random(MASTER_SEED + 10)
        for _ in range(200):
            n = rng.randint(2, 12)
            c = random_metric_cost(n, rng)
            ranks = shuffled_ranks(n, rng)
            assert c.triangle_violation() is None
            tree = nn_tree(c, ranks)
            mst = mst_cost(c)[0]
            budget, ok = nnt_bound_check(n, tree.total, mst)
            assert ok
            assert len(tree.edges) == n - 1
            seen = {tree.root}
            for v, w in sorted(tree.attach.items(), key=lambda it: -ranks[it[0]]):
                assert ranks[w] > ranks[v]
                assert w in seen  # parents always rank higher: no cycles
                seen.add(v)
            assert tree.total <= budget == math.ceil(2 * (1 + math.log(n)) * mst)


def test_criterion_11_ratio_floor_at_desk_scale():
    with criterion(11):
        ratios = []
        for m in (10, 11, 12):
            k = int((m - 1) / 2.5)
            n = vertex_count_formula(m, k)
            ratio = Fraction((k + 1) * ((1 << m) + 1) - 1, n - 1)
            assert float(ratio) / math.log2(n) >= 0.3
            ratios.append(ratio)
        assert ratios[0] <= ratios[1] <= ratios[2]


def test_criterion_12_padding_windows():
    with criterion(12):
        samples = [
            (2, 1), (3, 2), (5, 3), (9, 2), (16, 2), (31, 4), (64, 3),
            (100, 5), (255, 6), (512, 7), (1000, 8), (1023, 8),
        ]
        for nu, k in samples:
            low = build_lr(nu, k)
            high = build_lr(nu + 1, k)
            assert 1 <= high.n - low.n <= k + 1
            for n in range(low.n, low.n + k + 2):
                padded = pad_to_n(nu, k, n)
                assert padded.graph.n == n
                hop = CostFunction.hop_metric(padded.graph)
                assert validate_nn_traversal(hop, padded.nn_route) is None
