"""The hop hot paths against the whole-graph algorithms they replaced.

Each oracle here is the earlier implementation, kept only to pin the faster
one: all-pairs BFS rows for the hop cost extremes (whose diameter is taken
on the true-twin quotient), set-based BFS runs (the nearest unvisited node,
then a full BFS from it) for the nn agent's bitset searches, the set-based
restarting DFS for its bitset one, a fresh multi-source BFS every round for
the R1/R2 checker and for its local repair, and a scan of every visited
label for the walker's rounds.
"""

import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nntrav import simulator
from nntrav.games import (
    AgentStrategy,
    CliqueAdversary,
    DfsRestartAgent,
    NnAgent,
    NullAdversary,
    ScheduleAdversary,
)
from nntrav.graph import (
    CostFunction,
    Graph,
    GraphError,
    UnreachableError,
    _hop_diameter,
    bfs_distances,
    complete_graph,
    nearest_of,
    normalize_edge,
    path_graph,
)
from nntrav.layered_ring import build_lr
from nntrav.simulator import FailureSchedule, SimStep, SimTrace, _repair, check_r1_r2, sim_step

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
    """The records of a run played with ``step``, each with the rule (True for
    *rise*) and the due set that the run's state gave its round."""
    work = graph.copy()
    pre = schedule.edges_at(0)
    for u, v in pre:
        work.delete_edge(u, v)
    run = SimTrace(graph.n, start, pre)
    out = []
    while run.iterations < budget and run.outcome != "terminated":
        rising, due = run.rising, set(run.due)
        out.append((step(run, work, schedule.edges_at(run.iterations + 1)), rising, due))
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
        assert got[0] is GraphError and _hop_diameter(g) == 0
    elif len(g.component(0)) < g.n:
        assert got[0] is UnreachableError
    else:
        assert got[0] == 1


def twin_graph(rng, k, keep):
    """Each node of a random connected graph on ``k`` nodes blown up into a
    clique of 1-3 true twins, joined to the classes of its base neighbors;
    each base edge is kept with probability ``keep``, and up to two stray
    edges split some classes."""
    base = random_connected_graph(rng, k)
    members, n = [], 0
    for _ in range(k):
        size = rng.randint(1, 3)
        members.append(range(n, n + size))
        n += size
    edges = {(u, v) for c in members for u in c for v in c if u < v}
    for a, b in base.edges():
        if rng.random() < keep:
            edges.update((u, v) for u in members[a] for v in members[b])
    for _ in range(rng.randint(0, 2) if n > 1 else 0):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


@given(st.integers(1, 12), SEEDS, st.floats(0.6, 1.0))
@example(1, 0, 1.0)
@example(2, 0, 0.0)  # two classes, no edge between them
@settings(max_examples=120, deadline=None)
def test_twin_quotient_diameter_matches_all_pairs_rows(k, seed, keep):
    g = twin_graph(random.Random(seed), k, keep)
    cost = CostFunction.hop_metric(g)
    assert outcome(cost.pair_cost_extremes) == outcome(extremes_oracle, cost)


def cycle_of_cliques(sizes):
    """Cliques of the given sizes around a cycle, each joined to the next."""
    ids, at = [], 0
    for size in sizes:
        ids.append(range(at, at + size))
        at += size
    edges = {normalize_edge(u, v) for i, part in enumerate(ids)
             for nxt in (part, ids[(i + 1) % len(ids)]) for u in part for v in nxt if u != v}
    return Graph(at, sorted(edges))


def disjoint(a, b):
    """The union of two graphs, ``b``'s ids after ``a``'s."""
    return Graph(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()])


@pytest.mark.parametrize("graph", [
    *(complete_graph(n) for n in range(2, 7)),
    *(path_graph(n) for n in range(2, 7)),
    *(build_lr(nu, k).graph for nu, k in ((4, 1), (8, 2), (12, 2), (16, 3))),
    Graph(2),
    Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),  # two 3-cliques
    *(cycle_of_cliques(sizes) for sizes in ([1] * 5, [1] * 7, [1] * 8, [2, 1, 3, 1])),
    disjoint(cycle_of_cliques([1] * 4), cycle_of_cliques([1] * 5)),
    disjoint(cycle_of_cliques([1] * 5), cycle_of_cliques([2, 1, 1, 1])),
], ids=repr)
def test_twin_quotient_diameter_on_cliques_paths_and_rings(graph):
    """A clique is one class: diameter 1.  Two cliques apart stay apart.  A
    quotient of classes with two neighbours each is one cycle or several."""
    cost = CostFunction.hop_metric(graph)
    assert outcome(cost.pair_cost_extremes) == outcome(extremes_oracle, cost)


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


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def band_cut_schedules(rng, g, start):
    """One cut while the nn walker is partway to a target it has found:
    on the edge it takes next, on an edge later in its walk, and off the
    walk.  The walk is read from the oracle's game without cuts."""
    _, steps = play_recorded(NnOracleAgent(), NullAdversary(), g, start)
    seen, walks = {start}, []
    for i, s in enumerate(steps):
        if s.to in seen and i + 1 < len(steps):  # a hop through visited nodes
            ahead = []
            for t in steps[i + 1:]:
                ahead.append(normalize_edge(t.frm, t.to))
                if t.to not in seen:
                    break
            walks.append((s.step, ahead))
        seen.add(s.to)
    if not walks:
        return []
    step, ahead = rng.choice(walks)
    off = [e for e in g.edges() if e not in ahead]
    cuts = [ahead[0], rng.choice(ahead)] + ([rng.choice(off)] if off else [])
    return [FailureSchedule({step: (e,)}) for e in cuts]


def last_node_schedules(rng, g, start):
    """Cuts from the step that leaves one node unvisited on: random edges at
    random steps, and the same with every edge of that last node cut too."""
    _, steps = play_recorded(NnOracleAgent(), NullAdversary(), g, start)
    seen = {start}
    for s in [None, *steps]:
        if s is not None:
            seen.add(s.to)
        if len(seen) == g.n - 1:
            break
    else:
        return []
    first = 0 if s is None else s.step
    (last,) = set(range(g.n)) - seen
    pool = g.edges()
    rng.shuffle(pool)
    some = pool[:rng.randint(1, len(pool))]
    isolating = [e for e in pool if last in e]
    schedules = []
    for cut in (some, [e for e in some if last not in e] + isolating):
        plan: dict[int, list] = {}
        for e in cut:
            plan.setdefault(first + rng.randint(0, 2 * g.n), []).append(e)
        schedules.append(FailureSchedule({k: tuple(v) for k, v in plan.items()}))
    return schedules


@given(st.integers(1, 14), SEEDS)
@settings(max_examples=80, deadline=None)
def test_bitset_agents_play_the_set_based_games(n, seed):
    """Whole games under random schedules, pre-run cuts included: each bitset
    agent emits the step stream of its set-based oracle.  The nn agent also
    plays schedules that cut while it walks toward a target it has found,
    and after only one node is left, that node cut off included."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    start = rng.randrange(n)
    schedule = random_schedule(rng, g)
    for fast, oracle in ((NnAgent, NnOracleAgent), (DfsRestartAgent, SetDfsRestartAgent)):
        got = play_recorded(fast(), ScheduleAdversary(schedule), g, start)
        want = play_recorded(oracle(), ScheduleAdversary(schedule), g, start)
        assert got == want
    for schedule in band_cut_schedules(rng, g, start) + last_node_schedules(rng, g, start):
        with time_limit(5):
            got = play_recorded(NnAgent(), ScheduleAdversary(schedule), g, start)
        assert got == play_recorded(NnOracleAgent(), ScheduleAdversary(schedule), g, start)


def test_nn_agent_drops_its_bands_when_its_next_hop_is_cut():
    """The path 0-1-2-3-4-5 with the detour 1-6-7-5, from node 3: back on 1,
    halfway from 0 to its target 6, the walker loses the edge 1-6 it would
    take next and goes round by 2, 3, 4, 5 and 7 instead."""
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 7), (5, 7)])
    schedule = FailureSchedule({4: ((1, 6),)})
    got = play_recorded(NnAgent(), ScheduleAdversary(schedule), g, 3)
    assert got == play_recorded(NnOracleAgent(), ScheduleAdversary(schedule), g, 3)
    assert [s.to for s in got[1]] == [2, 1, 0, 1, 2, 3, 4, 5, 7, 6]


@pytest.mark.parametrize("n", range(4, 25))
def test_nn_agent_plays_the_clique_games(n):
    """After its first n − 1 visits the clique adversary cuts on most steps,
    while one node is left to reach."""
    for start in sorted({0, n // 2, n - 1}):
        with time_limit(5):
            got = play_recorded(NnAgent(), CliqueAdversary(), complete_graph(n), start)
        assert got == play_recorded(NnOracleAgent(), CliqueAdversary(), complete_graph(n), start)


@pytest.mark.parametrize("step, cut, halt", [
    (4, (0, 4), 2),  # the last node loses its only edge mid-walk
    (4, (1, 2), 2),  # the walker loses its way back
    (5, (0, 1), 1),
])
def test_nn_agent_halts_once_the_last_node_is_cut_off(step, cut, halt):
    """Node 4 hangs off node 0 of the path 0-1-2-3, whose chord 1-3 is cut
    once 3 is visited: from 3 the walker heads back toward 4 on that node's
    levels, and a later cut leaves 4 out of reach."""
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 3), (0, 4)])
    schedule = FailureSchedule({3: ((1, 3),), step: (cut,)})
    with time_limit(5):
        got = play_recorded(NnAgent(), ScheduleAdversary(schedule), g, 0)
    assert got == play_recorded(NnOracleAgent(), ScheduleAdversary(schedule), g, 0)
    trace, steps = got
    assert [s.to for s in steps[:3]] == [1, 2, 3]
    assert (trace.outcome, trace.step_count, steps[-1].to) == ("halted", step, halt)
    assert trace.visited == {0, 1, 2, 3}


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


def due_sets_oracle(graph, schedule, rounds):
    """The due set of each round after the first, by definition: the nodes
    whose label in the round before broke the round's rule, their neighbors,
    and that round's new visit and cut endpoints."""
    work = graph.copy()
    for u, v in schedule.edges_at(0):
        work.delete_edge(u, v)
    n = graph.n
    old = (0,) * n
    out = []
    for (step, _, _), (_, rising, _) in zip(rounds, rounds[1:]):
        rule = [min(x + 1, n + 1) for x in old] if rising else old
        exceptions = [v for v in range(n) if step.dist[v] != rule[v]]
        due = set(exceptions).union(*(work.adjacency[v] for v in exceptions))
        if step.explored is not None:
            due.add(step.explored)
        for u, v in step.deleted:
            work.delete_edge(u, v)
            due.update((u, v))
        out.append(due)
        old = step.dist
    return out


def same_rounds(g, start, schedule, budget):
    """Assert that ``sim_step`` plays the rounds of the full scan and that
    each round recomputes exactly its due set; return each round's record
    with the rule and the due set it started from."""
    got = step_rounds(sim_step, g, start, schedule, budget)
    want = step_rounds(full_scan_step, g, start, schedule, budget)
    assert [s for s, _, _ in got] == [s for s, _, _ in want]
    assert [due for _, _, due in got[1:]] == due_sets_oracle(g, schedule, got)
    return got


@given(st.integers(1, 30), SEEDS)
@example(15, 0)  # the rule flips while a node cut off from the walker sits at n + 1
@settings(max_examples=80, deadline=None)
def test_sim_step_matches_the_full_scan(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n)
    budget = rng.choice([4 * n * n, rng.randint(0, 4 * n)])
    same_rounds(g, rng.randrange(n), random_schedule(rng, g), budget)


def count_up_case(n, seed):
    """A sparse random graph, thinned in about one case of three, a start,
    cuts that land between the last visit and the end of the uncut run, and
    a budget that ends the run or stops it during that count-up."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, rng.choice([0, 1, n // 4]))
    if rng.random() < 0.3:
        g = thinned_graph(rng, n, 0.7)
    start = rng.randrange(n)
    plain = step_rounds(full_scan_step, g, start, simulator.FailureSchedule(), 4 * n * n)
    last = max((s.iteration for s, _, _ in plain if s.explored is not None), default=0)
    pool = g.edges()
    rng.shuffle(pool)
    plan: dict[int, list] = {}
    for e in pool[:rng.randint(0, len(pool) // 2)]:
        plan.setdefault(rng.randint(last, len(plain)), []).append(e)
    budget = rng.choice([4 * n * n, rng.randint(last, len(plain))])
    return g, start, simulator.FailureSchedule(plan), budget


@given(st.integers(1, 30), SEEDS)
@example(14, 11)  # six cuts land just before rounds under *rise*
@example(12, 9)  # disconnected: the unreachable unvisited nodes stay exceptions to *rise*
@example(12, 2)  # the budget stops the run at round 37, under *rise*
@settings(max_examples=80, deadline=None)
def test_sim_step_matches_the_full_scan_through_the_count_up(n, seed):
    """After the last visit every label counts up to n + 1, under *rise*."""
    same_rounds(*count_up_case(n, seed))


def test_sim_step_holds_or_rises():
    """A path sweep and a clique with cuts each play rounds under both rules.
    In the clique's count-up every label rises together, so after the round
    that flips to *rise* a round recomputes little beyond the previous
    round's cut endpoints."""
    clique = complete_graph(30)
    for g, start, schedule in (
            (path_graph(40), 13, simulator.FailureSchedule({70: ((20, 21),)})),
            (clique, 0, random_schedule(random.Random(30), clique, rounds=3 * clique.n))):
        rounds = same_rounds(g, start, schedule, 4 * g.n * g.n)
        rules = [rising for _, rising, _ in rounds]
        assert rules.count(True) > 1 and rules.count(False) > 1
    last = max(s.iteration for s, _, _ in rounds if s.explored is not None)
    count_up = rounds[last:]
    flip = next(i for i, (_, rising, _) in enumerate(count_up) if rising)
    assert len(count_up) - flip > clique.n // 2
    for (before, _, _), (_, rising, due) in zip(count_up[flip:], count_up[flip + 1:]):
        assert rising
        assert len(due - {v for e in before.deleted for v in e}) <= 2
