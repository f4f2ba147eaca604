"""Edge-deletion games: walker strategies versus adaptive edge-cutting adversaries.

A game alternates one agent move with one adversary reaction.  The agent sees
the whole current graph and the visited set; it may halt only when every node
still connected to it has been visited.  The adversary sees the state after
each move and deletes currently-existing edges.  Step counts under the clique
adversary realize the quadratic lower bound for every strategy; the two-clique
trap with the one-cut-per-search rule drives the restarting depth-first walker
to superquadratic totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .graph import Edge, Graph, GraphError, bfs_levels, nearest_of, normalize_edge
from .layered_ring import DfsTrap
from .simulator import FailureSchedule, encode_line


class GameError(GraphError):
    """Illegal move, illegal deletion, illegal halt, or broken precondition."""


class AgentStrategy:
    name = "agent"

    def reset(self, graph: Graph, start: int) -> None:
        pass

    def decide(self, graph: Graph, visited: set[int], pos: int) -> int | None:
        """Next neighbor to move to, or None to halt."""
        raise NotImplementedError


class Adversary:
    """Deletes edges after each agent move.  ``react`` appends its events (dicts
    naming their step) to ``events``; ``play_game`` hands each step's new ones
    to ``on_step``."""

    name = "adversary"

    def __init__(self) -> None:
        self.events: list[dict] = []

    def reset(self, graph: Graph, start: int) -> list[Edge]:
        """Prepare for a run; returns edges to delete before the first move."""
        self.events = []
        return []

    def react(self, graph: Graph, visited: set[int], step: int, frm: int, to: int) -> list[Edge]:
        """Edges to delete after move ``step``, ``frm`` -> ``to``.  ``graph`` and
        ``visited`` (which holds ``to``) are the game's own: read, never change."""
        return []


@dataclass
class GameTrace:
    """A finished game's summary; its steps went to ``play_game``'s ``on_step``.

    ``events`` holds the adversary's events in order (the clique's phase
    events, each naming its step), not the steps.
    """

    n: int
    start: int
    agent: str
    adversary: str
    pre_deleted: tuple[Edge, ...]
    step_count: int
    outcome: str  # "halted" | "budget-exhausted"
    visited: set[int]
    events: list[dict]

    def to_json_lines(self) -> list[str]:
        """The lines that close the trace after the step lines: the summary."""
        summary = {
            "agent": self.agent,
            "adversary": self.adversary,
            "outcome": self.outcome,
            "steps": self.step_count,
            "visited": sorted(self.visited),
        }
        return [encode_line(summary)]


def game_budget(n: int) -> int:
    """Default step budget 8·n²; exceeding it is an outcome, not an exception."""
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    return 8 * n * n


def play_game(
    agent: AgentStrategy,
    adv: Adversary,
    graph: Graph,
    start: int,
    max_steps: int | None = None,
    on_step: Callable[..., object] | None = None,
) -> GameTrace:
    """Alternate agent moves and adversary deletions until a legal halt or budget.

    Both sides are validated every turn: moves must follow current edges,
    deletions must name current edges, and a halt is only legal when the
    agent's whole component is visited.  The input graph is left unmodified.

    Each step goes to ``on_step(step, frm, to, deleted, events)`` as soon as
    the adversary has reacted, and is not kept; a call with step 0 (``frm``
    and ``to`` None) first reports the deletions made before the first move.
    """
    if not 0 <= start < graph.n:
        raise GraphError(f"start {start} out of range for {graph.n} nodes")
    budget = game_budget(graph.n) if max_steps is None else max_steps
    if budget < 0:
        raise GraphError(f"step budget must be >= 0, got {budget}")
    work = graph.copy()
    agent.reset(work, start)
    pre = tuple(normalize_edge(u, v) for u, v in adv.reset(work, start))
    for u, v in pre:
        work.delete_edge(u, v)
    if pre and on_step is not None:
        on_step(0, None, None, pre, ())
    adj = work.adjacency
    visited = {start}
    decide, react, events = agent.decide, adv.react, adv.events
    pos = start
    step = 0
    outcome = "budget-exhausted"
    while step < budget:
        move = decide(work, visited, pos)
        if move is None:
            if not work.component(pos) <= visited:
                raise GameError(
                    f"illegal halt at {pos}: unvisited nodes are still reachable")
            outcome = "halted"
            break
        # the sets hold only valid ids, but True == 1 and 1.0 == 1 would pass
        if type(move) is not int or move not in adj[pos]:
            raise GameError(f"illegal move {pos} -> {move!r}: nodes not adjacent")
        frm, pos = pos, move
        step += 1
        visited.add(pos)
        seen = len(events)
        cuts = []
        for u, v in react(work, visited, step, frm, pos):
            e = normalize_edge(u, v)
            work.delete_edge(u, v)  # raises if the edge does not exist
            cuts.append(e)
        if on_step is not None:
            on_step(step, frm, pos, cuts, events[seen:])
    return GameTrace(graph.n, start, agent.name, adv.name, pre, step, outcome, visited, events)


def trace_writer(write: Callable[[str], object]) -> Callable[..., None]:
    """An ``on_step`` consumer that passes each step's trace line, with its
    newline, to ``write``.

    A line is the text ``encode_line`` gives the step's JSON object.  Most
    steps cut no edge and raise no event; their line has a fixed shape and is
    built by one f-string.
    """

    def on_step(step, frm, to, deleted, events) -> None:
        if deleted or events:
            obj = {"step": step, "deleted": [list(e) for e in deleted]}
            if step:
                obj.update({"from": frm, "to": to, "events": list(events)})
            write(encode_line(obj) + "\n")
        else:
            write(f'{{"deleted": [], "events": [], "from": {frm}, "step": {step}, "to": {to}}}\n')

    return on_step


class NnAgent(AgentStrategy):
    """One hop per step along a currently-shortest path to a nearest unvisited node.

    Both the target and the hop break ties by lowest id; everything is
    recomputed from the current graph every step, so deletions reroute it.
    The hop is found by a BFS from the target that stops at radius d − 1,
    where d is the walker's distance to it.
    """

    name = "nn"

    def decide(self, graph: Graph, visited: set[int], pos: int) -> int | None:
        unvisited = set(range(graph.n)) - visited
        found = nearest_of(graph, pos, unvisited)
        if found is None:
            return None
        dist, tied = found
        target = tied[0]
        if dist == 1:
            return target
        ring = next(islice(bfs_levels(graph, (target,)), dist - 1, None))
        return min(graph.adjacency[pos].intersection(ring))


class DfsRestartAgent(AgentStrategy):
    """Depth-first walker that scraps all state and starts over on a failed backtrack.

    Forward moves take the lowest-id neighbor not yet seen in the current
    search; backtracking retraces the walker's own stack.  If the stack edge
    has been deleted, the walker begins a completely new search rooted where
    it stands.  It halts when a search finishes back at its root.
    """

    name = "dfs-restart"

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.seen: set[int] = set()
        self.attempt = 1
        self.last_kind: str | None = None

    def reset(self, graph: Graph, start: int) -> None:
        self.stack = []
        self.seen = {start}
        self.attempt = 1
        self.last_kind = None

    def decide(self, graph: Graph, visited: set[int], pos: int) -> int | None:
        adj = graph.adjacency
        while True:
            fresh = adj[pos] - self.seen
            if fresh:
                nxt = min(fresh)
                self.stack.append(pos)
                self.seen.add(nxt)
                self.last_kind = "forward"
                return nxt
            if self.stack:
                parent = self.stack[-1]
                if parent in adj[pos]:
                    self.stack.pop()
                    self.last_kind = "backtrack"
                    return parent
                # Stack edge gone: forget everything, search anew from here.
                self.stack = []
                self.seen = {pos}
                self.attempt += 1
                self.last_kind = "restart"
                continue
            return None


class NullAdversary(Adversary):
    name = "none"


class ScheduleAdversary(Adversary):
    """Replays a fixed deletion schedule keyed by step count (0 = before the run)."""

    name = "schedule"

    def __init__(self, schedule: FailureSchedule) -> None:
        super().__init__()
        self.schedule = schedule

    def reset(self, graph: Graph, start: int) -> list[Edge]:
        super().reset(graph, start)
        return list(self.schedule.edges_at(0))

    def react(self, graph: Graph, visited: set[int], step: int, frm: int, to: int) -> list[Edge]:
        return list(self.schedule.edges_at(step))


class CliqueAdversary(Adversary):
    """The complete-graph strategy that forces at least n·(n−1)/2 steps.

    It waits until n−1 distinct nodes are visited, then isolates the last
    unvisited node x_1 behind a growing chain: every arrival next to the
    current target x_i costs that edge, and when only two non-chain neighbors
    z, z' remain, the first of them the agent reaches is cut off on both sides
    and the other becomes x_{i+1}.  The agent can never stand on a chain node,
    and the survivors form a path it must walk end to end.
    """

    name = "clique"

    def __init__(self) -> None:
        super().__init__()
        self.phase = "wait"
        self.phase_index = 0
        self.x: int | None = None
        self.prev_x: int | None = None
        self.zpair: set[int] = set()

    def reset(self, graph: Graph, start: int) -> list[Edge]:
        super().reset(graph, start)
        n = graph.n
        if n < 4:
            raise GameError(f"clique adversary needs n >= 4, got {n}")
        if graph.edge_count != n * (n - 1) // 2:
            raise GameError("clique adversary requires a complete initial graph")
        self.phase = "wait"
        self.phase_index = 0
        self.x = None
        self.prev_x = None
        self.zpair = set()
        return []

    def _normalize(self, live: set[int], step: int) -> None:
        # live = surviving non-chain neighbors of the current target.
        if len(live) >= 3:
            self.phase = "cutting"
            self.zpair = set()
        elif len(live) == 2:
            self.phase = "zwait"
            self.zpair = set(live)
            self.events.append(
                {"kind": "z-pair", "phase": self.phase_index, "pair": sorted(live), "step": step})
        else:
            self.phase = "dormant"
            self.events.append({"kind": "dormant", "phase": self.phase_index, "step": step})

    def react(self, graph: Graph, visited: set[int], step: int, frm: int, to: int) -> list[Edge]:
        if self.phase == "dormant":
            return []
        adj = graph.adjacency
        if self.phase == "wait":
            if len(visited) < graph.n - 1:
                return []
            (x1,) = set(range(graph.n)) - visited
            self.x = x1
            self.phase_index = 1
            self.events.append(
                {"kind": "phase-start", "phase": 1, "x": x1, "step": step})
            self._normalize(adj[x1] - {to}, step)
            return [(to, x1)]
        if self.phase == "cutting":
            if to != self.prev_x and self.x in adj[to]:
                live = adj[self.x] - {to}
                live.discard(self.prev_x)
                self._normalize(live, step)
                return [(to, self.x)]
            return []
        # zwait: the first of the final pair the agent reaches gets cut off.
        if to in self.zpair:
            z = to
            (z_prime,) = self.zpair - {to}
            old_x = self.x
            self.events.append({
                "kind": "phase-end", "phase": self.phase_index,
                "z": z, "z_prime": z_prime, "step": step,
            })
            self.prev_x = old_x
            self.x = z_prime
            self.phase_index += 1
            self.events.append(
                {"kind": "phase-start", "phase": self.phase_index, "x": z_prime, "step": step})
            self._normalize(adj[z_prime] - {z, old_x}, step)
            return [(old_x, z), (z, z_prime)]
        return []


class KillerAdversary(Adversary):
    """One cut per search against the restarting depth-first walker on a two-clique trap.

    Whenever the current search first crosses a non-tree edge forward, that
    edge is deleted; the walker is guaranteed to fail its later backtrack
    there and restart from scratch.  The adversary cannot see the walker's
    stack, so it steps a private replica of the walker to classify each
    observed move; a mismatch means a different agent is playing, which is an
    error rather than silent misbehavior.
    """

    name = "killer"

    def __init__(self, trap: DfsTrap) -> None:
        super().__init__()
        self.trap = trap
        self.shadow = DfsRestartAgent()
        self._last_cut_attempt = 0

    def reset(self, graph: Graph, start: int) -> list[Edge]:
        super().reset(graph, start)
        if graph != self.trap.graph:
            raise GameError("killer adversary must play on its own trap graph")
        self.shadow = DfsRestartAgent()
        self.shadow.reset(graph, start)
        self._last_cut_attempt = 0
        return []

    def react(self, graph: Graph, visited: set[int], step: int, frm: int, to: int) -> list[Edge]:
        # The graph is unchanged since the agent decided (only we delete edges),
        # so the replica sees exactly what the agent saw.
        predicted = self.shadow.decide(graph, visited, frm)
        if predicted != to:
            raise GameError("killer adversary requires the restarting-DFS agent")
        if self.shadow.last_kind == "forward":
            e = normalize_edge(frm, to)
            if e not in self.trap.tree_edges and self.shadow.attempt > self._last_cut_attempt:
                self._last_cut_attempt = self.shadow.attempt
                return [e]
        return []


def killer_script(trap: DfsTrap, start: int = 0, max_steps: int | None = None) -> FailureSchedule:
    """Record the killer's cuts against the restarting walker as a step-keyed schedule.

    The walker is deterministic, so replaying the schedule reproduces the
    adaptive run exactly.  The default budget is cubic — the whole point of the
    trap is to push the walker past the quadratic mark — and a truncated
    capture is an error, never a partial script.
    """
    if max_steps is None:
        max_steps = 4 * trap.graph.n ** 3
    deletions: dict[int, tuple[Edge, ...]] = {}

    def keep_cuts(step, frm, to, deleted, events) -> None:
        if deleted:
            deletions[step] = tuple(deleted)

    trace = play_game(DfsRestartAgent(), KillerAdversary(trap), trap.graph, start, max_steps,
                      keep_cuts)
    if trace.outcome != "halted":
        raise GameError(f"script capture ran past {max_steps} steps without finishing")
    return FailureSchedule(deletions)


def clique_stage_lengths(trace: GameTrace) -> list[int]:
    """Step counts of the clique adversary's stages: initial, each phase, final walk.

    Parsed from the trace's phase events; the initial stage ends at the step
    that starts phase 1, phase i ends at the step carrying its phase-end.
    """
    boundaries = []
    for ev in trace.events:
        if ev["kind"] == "phase-start" and ev["phase"] == 1:
            boundaries.append(ev["step"])
        elif ev["kind"] == "phase-end":
            boundaries.append(ev["step"])
    if not boundaries:
        raise GameError("trace has no phase events")
    stages = [boundaries[0]]
    stages.extend(b - a for a, b in zip(boundaries, boundaries[1:]))
    stages.append(trace.step_count - boundaries[-1])
    return stages


def growth_fit(sizes: list[int], steps: list[int]) -> float:
    """Least-squares slope of log(steps) against log(size).

    Needs at least four strictly increasing sizes with positive step counts;
    constant step counts fit slope 0.
    """
    if len(sizes) != len(steps) or len(sizes) < 4:
        raise GraphError("need at least 4 (size, steps) points")
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
        raise GraphError("sizes must be positive and strictly increasing")
    if any(s < 1 for s in steps):
        raise GraphError("step counts must be positive")
    xs = [math.log(v) for v in sizes]
    ys = [math.log(s) for s in steps]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx
