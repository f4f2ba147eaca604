"""The packed R1/R2 test against the label scans it replaced: the same
verdicts and messages on recorded runs with altered labels, including
labels that do not pack cleanly."""

import random
from operator import gt, lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nntrav.graph import Graph, bfs_distances, path_graph
from nntrav.simulator import SimStep, _repair, check_r1_r2

from helpers import first_violation, random_connected_graph, random_schedule, run_recorded

SEEDS = st.integers(0, 2**32 - 1)


def outcome(fn, *args):
    """The return value, or the type and text of the exception raised."""
    try:
        return fn(*args)
    except Exception as err:  # the checker and the scans must fail alike
        return type(err), str(err)


def scan_check_r1_r2(graph: Graph):
    """``check_r1_r2`` before the packed test: a C-speed scan of every label
    for each rule every round, then a scan that names the first violation."""
    work = graph.copy()
    adj = work.adjacency
    n = graph.n
    limit = n // 8
    prev = (0,) * n
    visited = []
    true = [0] * n
    exact = False
    gave_up = skip = 0

    def repaired(seeds):
        nonlocal gave_up, skip
        if not exact:
            return False
        if skip:
            skip -= 1
            return False
        if _repair(adj, true, seeds, limit):
            gave_up = 0
            return True
        gave_up += 1
        if gave_up >= 8:
            skip = 1 << (gave_up - 8)
        return False

    def check(step):
        nonlocal prev, true, exact
        if not visited:
            visited.extend(v == step.pos_before for v in range(n))
        if step.iteration:
            if step.explored is not None:
                visited[step.explored] = True
                exact = repaired((step.explored,))
            dist = step.dist
            if any(map(lt, dist, prev)):
                for v in range(n):
                    if dist[v] < prev[v]:
                        return (f"R1 violated at iteration {step.iteration}: "
                                f"dist[{v}] decreased {prev[v]} -> {dist[v]}")
            if any(map(gt, dist, true)):
                if not exact:
                    true = bfs_distances(work, *(v for v in range(n) if not visited[v]))
                    exact = True
                for v in range(n):
                    if visited[v] and dist[v] > true[v]:
                        return (f"R2 violated at iteration {step.iteration}: "
                                f"dist[{v}] = {dist[v]} exceeds true distance {true[v]}")
            prev = dist
        if step.deleted:
            seeds = []
            for u, v in step.deleted:
                work.delete_edge(u, v)
                if true[u] != true[v]:
                    seeds.append(u if true[u] > true[v] else v)
            exact = repaired(seeds)
        return None

    return check


# label values that do not pack cleanly: a set guard bit of 16-bit fields,
# too wide for 16 bits, negative, a float, a bool
ODD_LABELS = [
    lambda rng, x: rng.randrange(1 << 15, 1 << 16),
    lambda rng, x: rng.randrange(1 << 16, 1 << 40),
    lambda rng, x: -rng.randint(1, 3),
    lambda rng, x: x + rng.choice([-1.0, 0.0, 0.5, 1.0]),
    lambda rng, x: rng.choice([True, False]),
]


def odd_tamper(steps, n, rng):
    """The recorded rounds with one round altered: one label set to an odd
    value, or the label tuple cut short or lengthened."""
    i = rng.choice([j for j, s in enumerate(steps) if s.iteration])
    dist = list(steps[i].dist)
    kind = rng.randrange(len(ODD_LABELS) + 2)
    if kind < len(ODD_LABELS):
        v = rng.randrange(n)
        dist[v] = ODD_LABELS[kind](rng, dist[v])
    elif kind == len(ODD_LABELS):
        del dist[rng.randrange(n):]
    else:
        dist.append(rng.randrange(n + 2))
    steps = list(steps)
    steps[i] = steps[i]._replace(dist=tuple(dist))
    return steps


def same_verdicts(graph, steps):
    got = outcome(first_violation, check_r1_r2(graph), steps)
    assert got == outcome(first_violation, scan_check_r1_r2(graph), steps)
    return got


@given(st.integers(2, 40), SEEDS)
@settings(max_examples=150, deadline=None)
def test_packed_checker_matches_the_scans_on_odd_labels(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    _, steps = run_recorded(g, rng.randrange(n), random_schedule(rng, g))
    assert same_verdicts(g, steps) is None
    for _ in range(4):
        same_verdicts(g, odd_tamper(steps, n, rng))


def test_a_label_on_its_guard_bit_is_not_read_as_a_pass():
    """A label in [2^15, 2^16) packs into a 16-bit field, sets that field's
    guard bit and borrows from the next field, so the packed R2 test alone
    can pass it, and the round after would read as an R1 violation.  Each
    visited label of each round, set to 40,000, must read as R2 there."""
    g = path_graph(12)
    _, steps = run_recorded(g, 4)
    visited = {4}
    for i, step in enumerate(steps):
        visited.add(step.explored)
        for v in visited - {None}:
            bad = list(steps)
            bad[i] = step._replace(dist=tuple(40_000 if u == v else x
                                              for u, x in enumerate(step.dist)))
            assert same_verdicts(g, bad).startswith(
                f"R2 violated at iteration {step.iteration}: dist[{v}] = 40000 exceeds")


@pytest.mark.parametrize("n", [(1 << 15) - 2, (1 << 15) - 1])
def test_packed_fields_at_the_width_boundary(n):
    """n + 1 = 2^15 - 1 still fits a 16-bit field below its guard bit;
    n + 1 = 2^15 needs 32-bit fields.  On an edgeless graph a visited
    node's true distance is the cap n + 1, so the cap is a legal label and
    one more is an R2 violation."""
    g = Graph(n)
    cap = n + 1

    def rounds(*labels):
        steps = [SimStep(0, 0, 0, False, None, (), ())]
        for it, (v, x) in enumerate(labels, 1):
            dist = [0] * n
            for u, _ in labels[:it]:
                dist[u] = cap
            dist[v] = x
            steps.append(SimStep(it, 0, 0, False, v if v else None, tuple(dist), ()))
        return steps

    assert same_verdicts(g, rounds((0, cap), (1, cap), (2, cap))) is None
    for odd in (cap + 1, 1 << 15, (1 << 16) - 1, 1 << 16, -1, 1.5, True):
        same_verdicts(g, rounds((0, cap), (1, odd), (2, cap)))
    assert same_verdicts(g, rounds((0, cap), (1, cap + 1))) == (
        f"R2 violated at iteration 2: dist[1] = {cap + 1} exceeds true distance {cap}")
