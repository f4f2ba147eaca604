"""The hop hot paths against the whole-graph algorithms they replaced.

Each oracle here is the earlier implementation, kept only to pin the faster
one: all-pairs BFS rows for the hop cost extremes, set-based BFS runs (the
nearest unvisited node, then a full BFS from it) for the nn agent's bitset
searches, the set-based restarting DFS for its bitset one, a fresh
multi-source BFS every round for the R1/R2 checker and for its local
repair, and a scan of every visited label for the walker's rounds.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nntrav import simulator
from nntrav.games import AgentStrategy, DfsRestartAgent, NnAgent, ScheduleAdversary
from nntrav.graph import (
    CostFunction,
    GraphError,
    UnreachableError,
    bfs_distances,
    complete_graph,
    nearest_of,
    normalize_edge,
    path_graph,
)
from nntrav.simulator import SimStep, SimTrace, _repair, check_r1_r2, sim_step

from helpers import (
    first_violation,
    play_recorded,
    random_connected_graph,
    random_schedule,
    run_recorded,
)

SEEDS = st.integers(0, 2**32 - 1)


def extremes_oracle(cost: CostFunction) -> tuple[int, int]:
    """(min, max) over distinct pairs, read off every full row."""
    if cost.n < 2:
        raise GraphError("no distinct pairs on a single node")
    tails = [cost.row(u)[u + 1:] for u in range(cost.n - 1)]
    return min(min(t) for t in tails), max(max(t) for t in tails)


def nn_decide_oracle(graph, visited, pos):
    """Lowest-id nearest target, then the lowest-id neighbor one hop closer to
    it, found with a full BFS from the target."""
    found = nearest_of(graph, pos, set(range(graph.n)) - visited)
    if found is None:
        return None
    dist, tied = found
    target = tied[0]
    if dist == 1:
        return target
    from_target = bfs_distances(graph, target)
    return min(u for u in graph.adjacency[pos] if from_target[u] == dist - 1)


class NnOracleAgent(AgentStrategy):
    """The nn agent as :func:`nn_decide_oracle` plays it."""

    name = "nn"

    def decide(self, graph, visited, pos):
        return nn_decide_oracle(graph, visited, pos)


class SetDfsRestartAgent(AgentStrategy):
    """The restarting DFS with its seen nodes in a set: the forward move is
    the least of the walker's neighbors not yet seen."""

    name = "dfs-restart"

    def reset(self, graph, start):
        self.stack = []
        self.seen = {start}

    def decide(self, graph, visited, pos):
        adj = graph.adjacency
        while True:
            fresh = adj[pos] - self.seen
            if fresh:
                nxt = min(fresh)
                self.stack.append(pos)
                self.seen.add(nxt)
                return nxt
            if self.stack:
                parent = self.stack[-1]
                if parent in adj[pos]:
                    self.stack.pop()
                    return parent
                self.stack = []
                self.seen = {pos}
                continue
            return None


def r1_r2_oracle(trace, steps, graph):
    """R1/R2 over a run's recorded rounds, with a fresh multi-source BFS and a
    full scan every round."""
    work = graph.copy()
    for u, v in trace.pre_deleted:
        work.delete_edge(u, v)
    prev = [0] * trace.n
    visited = [False] * trace.n
    visited[trace.start] = True
    for step in steps:
        if not step.iteration:  # the pre-run deletions, applied above
            continue
        if step.explored is not None:
            visited[step.explored] = True
        for v in range(trace.n):
            if step.dist[v] < prev[v]:
                return (
                    f"R1 violated at iteration {step.iteration}: "
                    f"dist[{v}] decreased {prev[v]} -> {step.dist[v]}"
                )
        true = bfs_distances(work, *(v for v in range(trace.n) if not visited[v]))
        for v in range(trace.n):
            if visited[v] and step.dist[v] > true[v]:
                return (
                    f"R2 violated at iteration {step.iteration}: "
                    f"dist[{v}] = {step.dist[v]} exceeds true distance {true[v]}"
                )
        prev = list(step.dist)
        for u, v in step.deleted:
            work.delete_edge(u, v)
    return None


def full_scan_step(run, graph, deletions=()):
    """One round with every visited label recomputed from the previous round's."""
    adj = graph.adjacency
    n = graph.n
    old = run.dist
    dist = list(old)
    for v in range(n):
        if run.vis[v]:
            best = min([old[v], *(old[u] for u in adj[v])])
            dist[v] = best + 1 if best < n else n + 1
    before = pos = run.pos
    explored = None
    if adj[pos]:
        target = min(adj[pos], key=lambda u: (dist[u], u))
        if dist[target] < dist[pos]:
            pos = target
            if not run.vis[pos]:
                run.vis[pos] = True
                run.explored += 1
                explored = pos
    run.dist, run.pos = dist, pos
    run.iterations += 1
    applied = ()
    if dist[pos] > run.explored:
        run.outcome = "terminated"
    else:
        for u, v in deletions:
            graph.delete_edge(u, v)
        applied = tuple(normalize_edge(u, v) for u, v in deletions)
    return SimStep(run.iterations, before, pos, pos != before, explored, tuple(dist), applied)


def step_rounds(step, graph, start, schedule, budget):
    """The records of a run played with ``step``, and for each round whether
    the run's state then asked for a scan of every visited label."""
    work = graph.copy()
    pre = schedule.edges_at(0)
    for u, v in pre:
        work.delete_edge(u, v)
    run = SimTrace(graph.n, start, pre)
    out = []
    while run.iterations < budget and run.outcome != "terminated":
        out.append((step(run, work, schedule.edges_at(run.iterations + 1)), run.due is None))
    return out


def thinned_graph(rng, n, keep):
    """A random connected graph with each edge then deleted with probability 1 - keep."""
    g = random_connected_graph(rng, n)
    for u, v in g.edges():
        if rng.random() > keep:
            g.delete_edge(u, v)
    return g


def outcome(fn, *args):
    """The return value, or the type and text of the GraphError raised."""
    try:
        return fn(*args)
    except GraphError as err:
        return type(err), str(err)


@given(st.integers(1, 14), SEEDS, st.floats(0.5, 1.0))
@example(1, 0, 1.0)
@example(2, 1, 0.5)  # two nodes, their one edge deleted
@settings(max_examples=80, deadline=None)
def test_hop_extremes_match_all_pairs_rows(n, seed, keep):
    g = thinned_graph(random.Random(seed), n, keep)
    cost = CostFunction.hop_metric(g)
    got = outcome(cost.pair_cost_extremes)
    assert got == outcome(extremes_oracle, cost)
    if n == 1:
        assert got[0] is GraphError
    elif len(g.component(0)) < g.n:
        assert got[0] is UnreachableError
    else:
        assert got[0] == 1


@given(st.integers(2, 14), SEEDS, st.floats(0.3, 1.0))
@settings(max_examples=80, deadline=None)
def test_nn_hop_matches_the_full_bfs_rule(n, seed, keep):
    rng = random.Random(seed)
    g = thinned_graph(rng, n, keep)
    order = rng.sample(range(n), rng.randint(1, n))
    visited = set(order)
    agent = NnAgent()
    agent.reset(g, order[0])
    for v in order[1:]:  # the agent learns each visit from standing there
        agent.decide(g, visited, v)
    for pos in sorted(visited):
        assert agent.decide(g, visited, pos) == nn_decide_oracle(g, visited, pos)


@given(st.integers(1, 14), SEEDS)
@settings(max_examples=80, deadline=None)
def test_bitset_agents_play_the_set_based_games(n, seed):
    """Whole games under random schedules, pre-run cuts included: each bitset
    agent emits the step stream of its set-based oracle."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    start = rng.randrange(n)
    schedule = random_schedule(rng, g)
    for fast, oracle in ((NnAgent, NnOracleAgent), (DfsRestartAgent, SetDfsRestartAgent)):
        got = play_recorded(fast(), ScheduleAdversary(schedule), g, start)
        want = play_recorded(oracle(), ScheduleAdversary(schedule), g, start)
        assert got == want


def tampered(steps, n, rng):
    """The recorded rounds with one label of one round set to another value."""
    rounds = [i for i, s in enumerate(steps) if s.iteration]
    i = rng.choice(rounds)
    v = rng.randrange(n)
    dist = list(steps[i].dist)
    dist[v] = rng.choice([x for x in range(n + 2) if x != dist[v]])
    steps = list(steps)
    steps[i] = steps[i]._replace(dist=tuple(dist))
    return steps


@given(st.integers(2, 40), SEEDS)
@example(24, 0)
@settings(max_examples=80, deadline=None)
def test_r1_r2_matches_the_per_round_bfs_checker(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    trace, steps = run_recorded(g, rng.randrange(n), random_schedule(rng, g))
    assert first_violation(check_r1_r2(g), steps) is None
    assert r1_r2_oracle(trace, steps, g) is None
    bad = tampered(steps, n, rng)
    assert first_violation(check_r1_r2(g), bad) == r1_r2_oracle(trace, bad, g)


def test_tampered_traces_reach_both_verdicts():
    """The sweep the property samples finds R1 and R2 violations, each worded
    exactly as the oracle words it, plus tamperings that break neither."""
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        g = random_connected_graph(rng, n)
        trace, steps = run_recorded(g, rng.randrange(n), random_schedule(rng, g))
        bad = tampered(steps, n, rng)
        got = first_violation(check_r1_r2(g), bad)
        assert got == r1_r2_oracle(trace, bad, g)
        kinds.add(got[:2] if got else None)
    assert kinds == {"R1", "R2", None}


@given(st.integers(1, 40), SEEDS)
@settings(max_examples=80, deadline=None)
def test_repair_matches_a_fresh_bfs_after_every_visit_and_cut(n, seed):
    """Visits and cuts in random order until no source and no edge is left.
    With limit n the repair always finishes with the fresh BFS distances;
    with limit 0 it gives up on any lost node and writes nothing."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    sources = set(range(n))
    true = bfs_distances(g, *sources)
    edges = g.edges()
    rng.shuffle(edges)
    while sources or edges:
        seeds = []
        visit = not edges or (sources and rng.random() < 0.5)
        if visit:
            x = rng.choice(sorted(sources))
            sources.discard(x)
            seeds.append(x)
        else:
            for _ in range(min(len(edges), rng.randint(1, 3))):
                u, v = edges.pop()
                g.delete_edge(u, v)
                if true[u] != true[v]:
                    seeds.append(u if true[u] > true[v] else v)
        fresh = bfs_distances(g, *sources)
        before = true[:]
        finished = _repair(g.adjacency, true, seeds, 0)
        assert true == before
        assert not (visit and finished)  # a visited source is always lost
        assert not finished or fresh == before
        assert _repair(g.adjacency, true, seeds, n)
        assert true == fresh


def test_r1_r2_backs_off_repairs_that_keep_giving_up(monkeypatch):
    """A path swept from node 40 of 120: once the visited stretch is wider
    than twice the repair limit, every visit loses more than the limit.
    Without the back-off 46 of the checker's 74 repairs give up; with it,
    13 of 41.  Its verdicts on tampered rounds still match the per-round BFS
    checker's."""
    g = path_graph(120)
    trace, steps = run_recorded(g, 40)
    finished = []
    real = simulator._repair
    monkeypatch.setattr(simulator, "_repair",
                        lambda *args: finished.append(real(*args)) or finished[-1])
    assert first_violation(check_r1_r2(g), steps) is None
    assert finished.count(False) <= 13 and len(finished) <= 41
    rng = random.Random(5)
    for _ in range(20):
        bad = tampered(steps, g.n, rng)
        assert first_violation(check_r1_r2(g), bad) == r1_r2_oracle(trace, bad, g)


def same_rounds(g, start, schedule, budget):
    """Assert that ``sim_step`` plays the rounds of the full scan; return for
    each round whether the run then asked for a scan of every visited label."""
    got = step_rounds(sim_step, g, start, schedule, budget)
    want = step_rounds(full_scan_step, g, start, schedule, budget)
    assert [s for s, _ in got] == [s for s, _ in want]
    return [full for _, full in got]


@given(st.integers(1, 30), SEEDS)
@settings(max_examples=80, deadline=None)
def test_sim_step_matches_the_full_scan(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    budget = rng.choice([4 * n * n, rng.randint(0, 4 * n)])
    same_rounds(g, rng.randrange(n), random_schedule(rng, g), budget)


def test_sim_step_switches_between_due_nodes_and_the_full_scan():
    """A path sweep moves most labels each round, so the next round scans them
    all; on a clique most labels settle, so it recomputes only the due ones.
    Both runs carry cuts."""
    for g, start in ((path_graph(40), 13), (complete_graph(12), 0)):
        schedule = random_schedule(random.Random(g.n), g, rounds=3 * g.n)
        modes = same_rounds(g, start, schedule, 4 * g.n * g.n)
        assert modes.count(True) > 1 and modes.count(False) > 1
