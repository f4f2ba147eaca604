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
from dataclasses import dataclass, field
from operator import gt, lt
from typing import Callable

from .graph import Edge, Graph, GraphError, bfs_distances, normalize_edge


# One trace line; the same text as json.dumps(obj, sort_keys=True) without
# building an encoder per call.  The game traces use it too.
encode_line = json.JSONEncoder(sort_keys=True).encode


class ScheduleError(GraphError):
    """A failure schedule is malformed or names a missing edge."""


@dataclass(frozen=True)
class FailureSchedule:
    """Edges to delete at the end of given iterations; iteration 0 means before the run."""

    deletions: dict[int, tuple[Edge, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[Edge] = set()
        cleaned: dict[int, tuple[Edge, ...]] = {}
        for iteration, edges in sorted(self.deletions.items()):
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
                cleaned[iteration] = tuple(batch)
        object.__setattr__(self, "deletions", cleaned)

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


@dataclass
class SimState:
    """Snapshot of the walker between rounds.

    ``exp`` counts explored (visited) nodes and starts at 1 for the start node;
    ``iteration`` counts completed rounds.
    """

    vis: list[bool]
    dist: list[int]
    pos: int
    exp: int
    iteration: int

    @classmethod
    def initial(cls, n: int, start: int) -> SimState:
        vis = [False] * n
        vis[start] = True
        return cls(vis, [0] * n, start, 1, 0)


def has_terminated(state: SimState) -> bool:
    return state.dist[state.pos] > state.exp


@dataclass(frozen=True)
class SimStep:
    """One round's record; iteration 0 records only the deletions made before the run."""

    iteration: int
    pos_before: int
    pos_after: int
    moved: bool
    explored: int | None
    dist: tuple[int, ...]
    deleted: tuple[Edge, ...]

    def as_json_obj(self) -> dict:
        if not self.iteration:
            return {"iter": 0, "deleted": [list(e) for e in self.deleted]}
        return {
            "iter": self.iteration,
            "pos_before": self.pos_before,
            "pos_after": self.pos_after,
            "moved": self.moved,
            "explored": self.explored,
            "dist": list(self.dist),
            "deleted": [list(e) for e in self.deleted],
        }


def sim_step(state: SimState, graph: Graph, deletions: tuple[Edge, ...] = ()) -> tuple[SimState, SimStep]:
    """One synchronous round: label update, move, then deletions.

    Returns the successor state and its step record without touching the input
    state.  ``graph`` is mutated by the deletions — except on the terminating
    round, whose deletions are skipped (the run is already over when they
    would land).
    """
    adj = graph.adjacency
    n = graph.n
    cap = n + 1
    old = state.dist
    dist = list(old)
    for v, seen in enumerate(state.vis):
        if seen:
            best = old[v]
            for u in adj[v]:
                if old[u] < best:
                    best = old[u]
            dist[v] = best + 1 if best < n else cap
    pos = state.pos
    vis = list(state.vis)
    exp = state.exp
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
                exp += 1
                explored = pos
    new = SimState(vis, dist, pos, exp, state.iteration + 1)
    applied: tuple[Edge, ...] = ()
    if not has_terminated(new):
        for u, v in deletions:
            graph.delete_edge(u, v)
        applied = tuple(normalize_edge(u, v) for u, v in deletions)
    record = SimStep(new.iteration, state.pos, pos, moved, explored, tuple(dist), applied)
    return new, record


@dataclass
class SimTrace:
    """A finished run's summary; its rounds went to ``run_sim``'s ``on_step``."""

    n: int
    start: int
    pre_deleted: tuple[Edge, ...]
    outcome: str  # "terminated" | "budget-exhausted"
    final: SimState

    @property
    def iterations(self) -> int:
        return self.final.iteration

    def visited(self) -> set[int]:
        return {v for v in range(self.n) if self.final.vis[v]}

    def to_json_lines(self) -> list[str]:
        """The lines that close the trace after the round lines: the summary."""
        summary = {
            "outcome": self.outcome,
            "iterations": self.iterations,
            "explored": self.final.exp,
            "visited": sorted(self.visited()),
        }
        return [encode_line(summary)]


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
    record is kept.  The input graph is not modified; deletions land on an
    internal copy.  Deterministic: same graph, start, and schedule give the
    identical records.
    """
    if not 0 <= start < graph.n:
        raise GraphError(f"start {start} out of range for {graph.n} nodes")
    schedule = schedule or FailureSchedule()
    budget = iteration_budget(graph.n) if max_iterations is None else max_iterations
    if budget < 0:
        raise GraphError(f"iteration budget must be >= 0, got {budget}")
    work = graph.copy()
    pre = schedule.edges_at(0)
    for u, v in pre:
        work.delete_edge(u, v)
    if pre and on_step is not None:
        on_step(SimStep(0, start, start, False, None, (), pre))
    state = SimState.initial(graph.n, start)
    outcome = "budget-exhausted"
    while state.iteration < budget:
        state, record = sim_step(state, work, schedule.edges_at(state.iteration + 1))
        if on_step is not None:
            on_step(record)
        if has_terminated(state):
            outcome = "terminated"
            break
    return SimTrace(graph.n, start, pre, outcome, state)


def check_r1_r2(graph: Graph) -> Callable[[SimStep], str | None]:
    """An online check of the two label invariants over a run on ``graph``.

    R1: every node's label is nondecreasing over the run.  R2: no visited
    node's label ever exceeds its true distance to the nearest unvisited node
    in the graph as it stood during that round (no unvisited reachable =>
    compared against the cap n + 1).  Feed the returned function the run's
    records in order, iteration 0 included; it returns None for a round where
    both hold, else a description of the violation.  Stop at the first one.
    """
    work = graph.copy()
    n = graph.n
    prev: tuple[int, ...] = (0,) * n
    visited: list[bool] = []  # filled from the first record's start node
    true = None  # the last BFS result; only an exploration or a deletion changes it

    def check(step: SimStep) -> str | None:
        nonlocal prev, true
        if not visited:
            visited.extend(v == step.pos_before for v in range(n))
        if step.iteration:
            if step.explored is not None:
                visited[step.explored] = True
                true = None
            dist = step.dist
            # a C-speed test first; the scans below name the first violation
            if any(map(lt, dist, prev)):
                for v in range(n):
                    if dist[v] < prev[v]:
                        return (
                            f"R1 violated at iteration {step.iteration}: "
                            f"dist[{v}] decreased {prev[v]} -> {dist[v]}"
                        )
            if true is None:
                # unreachable => n + 1, the label cap
                true = bfs_distances(work, *(v for v in range(n) if not visited[v]))
            if any(map(gt, dist, true)):
                for v in range(n):
                    if visited[v] and dist[v] > true[v]:
                        return (
                            f"R2 violated at iteration {step.iteration}: "
                            f"dist[{v}] = {dist[v]} exceeds true distance {true[v]}"
                        )
            prev = dist
        if step.deleted:
            for u, v in step.deleted:
                work.delete_edge(u, v)
            true = None
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
