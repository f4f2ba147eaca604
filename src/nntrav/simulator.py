"""Synchronous-round walker with per-node distance labels, under edge deletions.

Each round, every visited node recomputes its label from the previous round's
snapshot: ``dist = 1 + min(dist of itself and its neighbors)``, capped at
``n + 1``; unvisited nodes hold 0.  The walker then moves to the neighbor with
the smallest label if that label beats its own, and the run stops once the
walker's label exceeds the count of explored nodes — at that point no
reachable unvisited node can exist.  Scheduled deletions land at the end of
each round, so the labels may chase a moving target; the two runtime checks
(labels never decrease, labels never overestimate the true distance to the
nearest unvisited node) hold regardless.
"""

from __future__ import annotations

import json
import struct
import sys
from itertools import chain
from operator import gt, lt
from typing import Callable, Iterable, NamedTuple

from .graph import Edge, Graph, GraphError, bfs_distances, normalize_edge


# One trace line; the same text as json.dumps(obj, sort_keys=True) without
# building an encoder per call.  The game traces use it too.
encode_line = json.JSONEncoder(sort_keys=True).encode


class ScheduleError(GraphError):
    """A failure schedule is malformed or names a missing edge."""


class FailureSchedule:
    """Edges to delete at the end of given iterations; iteration 0 means before the run."""

    __slots__ = ("deletions",)

    def __init__(self, deletions: dict[int, tuple[Edge, ...]] | None = None) -> None:
        seen: set[Edge] = set()
        self.deletions: dict[int, tuple[Edge, ...]] = {}
        for iteration, edges in sorted((deletions or {}).items()):
            if not isinstance(iteration, int) or isinstance(iteration, bool) or iteration < 0:
                raise ScheduleError(f"iteration keys must be integers >= 0, got {iteration!r}")
            batch = []
            for e in edges:
                if not (isinstance(e, (list, tuple)) and len(e) == 2
                        and all(isinstance(x, int) and not isinstance(x, bool) for x in e)):
                    raise ScheduleError(f"edge entries must be pairs of node ids, got {e!r}")
                e = normalize_edge(*e)
                if e in seen:
                    raise ScheduleError(f"edge {e} scheduled for deletion twice")
                seen.add(e)
                batch.append(e)
            if batch:
                self.deletions[iteration] = tuple(batch)

    @classmethod
    def from_json_obj(cls, obj: object) -> FailureSchedule:
        if not isinstance(obj, dict) or not isinstance(obj.get("deletions"), list):
            raise ScheduleError('schedule JSON must be {"deletions": [...]}')
        deletions: dict[int, list[Edge]] = {}
        for entry in obj["deletions"]:
            if not isinstance(entry, dict) or "iter" not in entry or "edges" not in entry:
                raise ScheduleError('each deletion entry needs "iter" and "edges"')
            it = entry["iter"]
            if not isinstance(it, int) or isinstance(it, bool):
                raise ScheduleError(f'"iter" must be an integer, got {it!r}')
            if not isinstance(entry["edges"], list):
                raise ScheduleError(f'"edges" must be a list, got {entry["edges"]!r}')
            deletions.setdefault(it, []).extend(entry["edges"])
        return cls({it: tuple(edges) for it, edges in deletions.items()})

    def to_json_obj(self) -> dict:
        return {
            "deletions": [
                {"iter": it, "edges": [list(e) for e in self.deletions[it]]}
                for it in sorted(self.deletions)
            ]
        }

    def edges_at(self, iteration: int) -> tuple[Edge, ...]:
        return self.deletions.get(iteration, ())

    def check(self, graph: Graph) -> None:
        """Raise :meth:`Graph.delete_edge`'s error for the first scheduled edge
        not in ``graph``, before a run reaches its round."""
        graph.copy().delete_edges(chain.from_iterable(self.deletions.values()))


class SimStep(NamedTuple):
    """One round's record; iteration 0 records only the deletions made before the run."""

    iteration: int
    pos_before: int
    pos_after: int
    moved: bool
    explored: int | None
    dist: tuple[int, ...]
    deleted: tuple[Edge, ...]


class SimTrace:
    """A run of the walker: its state between rounds, and its summary once it ends.

    ``explored`` counts visited nodes and starts at 1 for the start node;
    ``iterations`` counts completed rounds.  ``outcome`` reads
    "budget-exhausted" until a round ends the run and sets it to "terminated".
    ``rising`` names the rule the next round's labels follow, *rise* (each
    goes up by one, to at most n + 1) or *hold*, and ``due`` holds the nodes
    that round recomputes: the only ones that may break the rule.  The
    rounds' records go to ``run_sim``'s ``on_step``.
    """

    __slots__ = ("n", "start", "pre_deleted", "outcome", "vis", "dist", "pos", "explored",
                 "iterations", "rising", "due")

    def __init__(self, n: int, start: int, pre_deleted: tuple[Edge, ...]) -> None:
        self.n = n
        self.start = start
        self.pre_deleted = pre_deleted
        self.outcome = "budget-exhausted"
        self.vis = [False] * n
        self.vis[start] = True
        self.dist = [0] * n
        self.pos = start
        self.explored = 1
        self.iterations = 0
        self.rising = False
        self.due = {start}

    def visited(self) -> set[int]:
        return {v for v in range(self.n) if self.vis[v]}

    def to_json_lines(self) -> list[str]:
        """The lines that close the trace after the round lines: the summary."""
        summary = {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "explored": self.explored,
            "visited": sorted(self.visited()),
        }
        return [encode_line(summary)]


def sim_step(run: SimTrace, graph: Graph, deletions: tuple[Edge, ...] = ()) -> SimStep:
    """One synchronous round: label update, move, then deletions.

    Advances ``run`` in place and returns the round's record.  ``graph`` is
    mutated by the deletions — except on the terminating round, whose
    deletions are skipped (the run is already over when they would land).

    Each round follows a rule, *hold* (labels keep their value) or *rise*
    (each goes up by one, to at most n + 1), and recomputes only the nodes in
    ``run.due``: its exceptions to the rule, their neighbors, the cut
    endpoints and the new visit make the next due set.  Any other node and
    its neighbors followed the rule and kept their edges, and 1 + min over a
    neighborhood commutes with both rules, so the rule gives its label.  Once
    more than half of the nodes are exceptions, the rule flips, and one pass
    finds the nodes that break the new one.
    """
    adj = graph.adjacency
    n = graph.n
    cap = n + 1
    old = run.dist
    vis = run.vis
    rising = run.rising
    # a fresh list: every new label reads the previous round's
    dist = [x + 1 if x < n else cap for x in old] if rising else list(old)
    exceptions = []
    for v in run.due:
        if vis[v]:
            best = old[v]
            for u in adj[v]:
                if old[u] < best:
                    best = old[u]
            best = best + 1 if best < n else cap
        else:
            best = 0  # unvisited: under *rise*, always an exception
        if best != dist[v]:
            dist[v] = best
            exceptions.append(v)
    if 2 * len(exceptions) > n:
        rising = run.rising = not rising
        exceptions = [v for v in range(n)
                      if dist[v] != (min(old[v] + 1, cap) if rising else old[v])]
    due = set(exceptions).union(*map(adj.__getitem__, exceptions))
    before = pos = run.pos
    moved = False
    explored = None
    neighbors = adj[pos]
    if neighbors:
        target = min(neighbors, key=lambda u: (dist[u], u))
        if dist[target] < dist[pos]:
            pos = target
            moved = True
            if not vis[pos]:
                vis[pos] = True
                run.explored += 1
                explored = pos
                due.add(pos)
    run.dist, run.pos, run.due = dist, pos, due
    run.iterations += 1
    applied: tuple[Edge, ...] = ()
    if dist[pos] > run.explored:
        run.outcome = "terminated"
    else:
        applied = graph.delete_edges(deletions)
        due.update(chain.from_iterable(applied))
    return SimStep(run.iterations, before, pos, moved, explored, tuple(dist), applied)


def trace_writer(write: Callable[[str], object], n: int) -> Callable[[SimStep], None]:
    """An ``on_step`` consumer that passes each round's trace line, with its
    newline, to ``write``, for a run on ``n`` nodes: the text ``encode_line``
    gives the round's JSON object.  Int lists print the same in ``repr`` as
    in JSON, and the labels' text is joined from a table of ``str(0 … n + 1)``.
    """
    text = [str(x) for x in range(n + 2)]

    def on_step(step: SimStep) -> None:
        deleted = [list(e) for e in step.deleted]
        if not step.iteration:
            write(f'{{"deleted": {deleted}, "iter": 0}}\n')
            return
        write(f'{{"deleted": {deleted}, "dist": [{", ".join(map(text.__getitem__, step.dist))}], '
              f'"explored": {"null" if step.explored is None else step.explored}, '
              f'"iter": {step.iteration}, "moved": {"true" if step.moved else "false"}, '
              f'"pos_after": {step.pos_after}, "pos_before": {step.pos_before}}}\n')

    return on_step


def iteration_budget(n: int) -> int:
    """Default round budget: every legal run must finish within 4·n²."""
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    return 4 * n * n


def run_sim(
    graph: Graph,
    start: int,
    schedule: FailureSchedule | None = None,
    max_iterations: int | None = None,
    on_step: Callable[[SimStep], object] | None = None,
) -> SimTrace:
    """Run rounds until the walker's label exceeds its explored count, or budget.

    Each round's record goes to ``on_step`` as soon as the round ends, after
    an iteration-0 record of the deletions made before the run, if any; no
    record is kept.  A scheduled edge not in ``graph`` raises before the first
    round.  The input graph is not modified; deletions land on an internal
    copy.  Deterministic: same graph, start, and schedule give the
    identical records.
    """
    if not 0 <= start < graph.n:
        raise GraphError(f"start {start} out of range for {graph.n} nodes")
    schedule = schedule or FailureSchedule()
    budget = iteration_budget(graph.n) if max_iterations is None else max_iterations
    if budget < 0:
        raise GraphError(f"iteration budget must be >= 0, got {budget}")
    schedule.check(graph)
    work = graph.copy()
    pre = work.delete_edges(schedule.edges_at(0))
    if pre and on_step is not None:
        on_step(SimStep(0, start, start, False, None, (), pre))
    run = SimTrace(graph.n, start, pre)
    while run.iterations < budget and run.outcome != "terminated":
        record = sim_step(run, work, schedule.edges_at(run.iterations + 1))
        if on_step is not None:
            on_step(record)
    return run


def _repair(adj: list[set[int]], true: list[int], seeds: Iterable[int], limit: int) -> bool:
    """Raise ``true``, the hop distances to a source set, to the exact values
    after some distances grew, by re-settling only the nodes that lost their way
    (the batch repair of Ramalingam & Reps, J. Algorithms 1996).

    ``adj`` is the graph after the change.  A seed is a node that may have
    lost its way: a source that stopped being one, or the farther end of a
    cut edge.  Level by level from the seeds, a node is lost when no
    neighbor one step nearer kept its own; the lost nodes are then settled
    from their neighbors that were not lost, nearest first.  Once more than
    ``limit`` nodes are lost it stops, leaves ``true`` as it was (still a
    lower bound) and returns False.
    """
    cap = len(true) + 1
    lost: set[int] = set()
    levels: dict[int, set[int]] = {}
    for w in seeds:
        levels.setdefault(true[w], set()).add(w)
    while levels:
        d = min(levels)
        for w in levels.pop(d):
            if d and any(true[u] == d - 1 and u not in lost for u in adj[w]):
                continue
            lost.add(w)
            if len(lost) > limit:
                return False
            levels.setdefault(d + 1, set()).update(u for u in adj[w] if true[u] == d + 1)
    tent: dict[int, int] = {}  # the lost nodes not yet settled
    buckets: dict[int, list[int]] = {}
    for w in lost:
        tent[w] = d = min([cap, *(true[u] + 1 for u in adj[w] if u not in lost)])
        buckets.setdefault(d, []).append(w)
    while buckets:
        d = min(buckets)
        for w in buckets.pop(d):
            if tent.get(w) != d:
                continue  # settled, or queued again nearer
            del tent[w]
            true[w] = d
            for u in adj[w]:
                if tent.get(u, 0) > d + 1:
                    tent[u] = d + 1
                    buckets.setdefault(d + 1, []).append(u)
    return True


def check_r1_r2(graph: Graph) -> Callable[[SimStep], str | None]:
    """An online check of the two label invariants over a run on ``graph``.

    R1: every node's label is nondecreasing over the run.  R2: no visited
    node's label ever exceeds its true distance to the nearest unvisited node
    in the graph as it stood during that round (no unvisited reachable =>
    compared against the cap n + 1).  Feed the returned function the run's
    records in order, iteration 0 included; it returns None for a round where
    both hold, else a description of the violation.  Stop at the first one.

    Visits and cuts only raise true distances, so each is repaired in place.
    A repair that would re-settle more than n // 8 nodes gives up; the old
    distances stay a lower bound, and a full BFS reruns only in a round whose
    labels exceed them.  Eight give-ups in a row cost about one BFS, so after
    that many the checker backs off: it passes over 1, 2, 4, ... chances to
    repair between attempts, until an attempt finishes.

    Each round's labels are packed into one int, a field per node whose top
    bit is a guard no legal label (at most n + 1) reaches, so one big-int
    subtract tests each rule for every node at once, as ``graph._packed``
    compares rows.  Labels that do not pack cleanly, and any round whose
    packed test fails, go to the scans, which name the first violation.
    """
    work = graph.copy()
    adj = work.adjacency
    n = graph.n
    limit = n // 8
    code, bits = next((c, b) for c, b in (("H", 16), ("I", 32), ("Q", 64)) if n + 1 < 1 << b - 1)
    fields = struct.Struct(f"={n}{code}")
    guard = int.from_bytes(fields.pack(*[1 << bits - 1] * n), sys.byteorder)

    def packed(labels) -> int | None:
        """``labels`` as one int with field v holding label v, or None when
        one is not an int in [0, guard bit) or their count is not n."""
        try:
            p = int.from_bytes(fields.pack(*labels), sys.byteorder)
        except struct.error:
            return None
        return None if p & guard else p

    prev: tuple[int, ...] = (0,) * n
    visited: list[bool] = []  # filled from the first record's start node
    true = [0] * n  # a lower bound until the first BFS
    packed_prev: int | None = 0  # packed(prev); None when prev does not pack
    packed_true = 0  # packed(true)
    exact = False
    gave_up = skip = 0  # give-ups in a row; chances to repair still to pass over

    def repaired(seeds: Iterable[int]) -> bool:
        """Whether ``true`` is still exact after a visit or cut at ``seeds``."""
        nonlocal gave_up, skip, packed_true
        if not exact:
            return False
        if skip:
            skip -= 1
            return False
        if _repair(adj, true, seeds, limit):
            gave_up = 0
            packed_true = packed(true)
            return True
        gave_up += 1
        if gave_up >= 8:
            skip = 1 << (gave_up - 8)
        return False

    def check(step: SimStep) -> str | None:
        nonlocal prev, packed_prev, true, packed_true, exact
        if not visited:
            visited.extend(v == step.pos_before for v in range(n))
        if step.iteration:
            if step.explored is not None:
                visited[step.explored] = True
                exact = repaired((step.explored,))
            dist = step.dist
            d = packed(dist)
            # every guard bit kept: dist >= prev (R1), and true >= dist, in every field
            r1 = d is not None and packed_prev is not None and (
                ((d | guard) - packed_prev) & guard == guard)
            r2 = d is not None and ((packed_true | guard) - d) & guard == guard
            # else a C-speed test; the scans below name the first violation
            if not r1 and any(map(lt, dist, prev)):
                for v in range(n):
                    if dist[v] < prev[v]:
                        return (
                            f"R1 violated at iteration {step.iteration}: "
                            f"dist[{v}] decreased {prev[v]} -> {dist[v]}"
                        )
            if not r2 and any(map(gt, dist, true)):
                if not exact:
                    # unreachable => n + 1, the label cap
                    true = bfs_distances(work, *(v for v in range(n) if not visited[v]))
                    packed_true = packed(true)
                    exact = True
                for v in range(n):
                    if visited[v] and dist[v] > true[v]:
                        return (
                            f"R2 violated at iteration {step.iteration}: "
                            f"dist[{v}] = {dist[v]} exceeds true distance {true[v]}"
                        )
            prev, packed_prev = dist, d
        if step.deleted:
            seeds = []
            for u, v in step.deleted:
                work.delete_edge(u, v)
                if true[u] != true[v]:
                    seeds.append(u if true[u] > true[v] else v)
            exact = repaired(seeds)
        return None

    return check


def check_progress(n: int) -> Callable[[SimStep], str | None]:
    """An online check of the per-round liveness accounting of the termination argument.

    Every round either moves the walker strictly downhill in label value,
    ends the run (the walker's label exceeds the explored count), or
    strictly increases some node's label.  Feed the returned function the
    records of a run on ``n`` nodes in order; it returns None for a round
    that complies, else a description of the violation.  Stop at the first
    one.
    """
    prev: tuple[int, ...] = (0,) * n
    explored = 1  # the start node

    def check(step: SimStep) -> str | None:
        nonlocal prev, explored
        if not step.iteration:
            return None
        dist = step.dist
        if step.explored is not None:
            explored += 1
        if step.moved:
            if dist[step.pos_after] >= dist[step.pos_before]:
                return (
                    f"move at iteration {step.iteration} was not downhill: "
                    f"{dist[step.pos_before]} -> {dist[step.pos_after]}"
                )
        elif dist[step.pos_after] <= explored and not any(map(gt, dist, prev)):
            return f"no move and no dist increase at iteration {step.iteration}"
        prev = dist
        return None

    return check
