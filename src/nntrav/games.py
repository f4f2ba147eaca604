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
from typing import Callable, Iterator, NamedTuple, Sequence

from .graph import (
    Edge,
    Graph,
    GraphError,
    bit_levels,
    complete_graph,
    neighbors_of,
    normalize_edge,
)
from .layered_ring import DfsTrap, build_dfs_killer
from .simulator import FailureSchedule, encode_line


class GameError(GraphError):
    """Illegal move, illegal deletion, illegal halt, or broken precondition."""


class AgentStrategy:
    """A walker for ``play_game``.  ``reset`` gets the game graph as the first
    move finds it, the pre-run deletions made; every ``decide`` is handed
    that same graph, and ``cut`` is told each later step's deletions, so an
    agent may keep views of it that follow them, such as its neighbor bitsets."""

    name = "agent"

    def reset(self, graph: Graph, start: int) -> None:
        pass

    def decide(self, graph: Graph, visited: set[int], pos: int) -> int | None:
        """Next neighbor to move to, or None to halt."""
        raise NotImplementedError

    def cut(self, edges: tuple[Edge, ...]) -> None:
        """The edges, normalized, deleted after the last move; never empty."""


class Adversary:
    """Deletes edges after each agent move.  ``react`` appends its events (dicts
    naming their step) to ``events``; ``play_game`` hands each step's new ones
    to ``on_step``."""

    name = "adversary"

    def reset(self, graph: Graph, start: int) -> Sequence[Edge]:
        """Prepare for a run; returns edges to delete before the first move."""
        self.events: list[dict] = []
        return []

    def react(self, graph: Graph, visited: set[int], step: int, frm: int,
              to: int) -> Sequence[Edge]:
        """Edges to delete after move ``step``, ``frm`` -> ``to``.  ``graph`` and
        ``visited`` (which holds ``to``) are the game's own: read, never change."""
        return []


class GameTrace(NamedTuple):
    """A finished game's summary; its steps went to ``play_game``'s ``on_step``.

    ``events`` holds the adversary's events in order (the clique's phase
    events, each naming its step), not the steps.
    """

    n: int
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
    pre = work.delete_edges(adv.reset(work, start))
    agent.reset(work, start)
    if pre and on_step is not None:
        on_step(0, None, None, pre, ())
    adj = work.adjacency
    visited = {start}
    decide, cut, react, events = agent.decide, agent.cut, adv.react, adv.events
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
        cuts = react(work, visited, step, frm, pos)
        if cuts:
            cuts = work.delete_edges(cuts)  # raises if an edge does not exist
            cut(cuts)
        if on_step is not None:
            on_step(step, frm, pos, cuts, events[seen:] if len(events) > seen else ())
    return GameTrace(graph.n, agent.name, adv.name, pre, step, outcome, visited, events)


def trace_writer(write: Callable[[str], object]) -> Callable[..., None]:
    """An ``on_step`` consumer that passes each step's trace line, with its
    newline, to ``write``.

    A line is the text ``encode_line`` gives the step's JSON object.  Every
    move that raises no event, with or without cuts, has a fixed shape and is
    built by one f-string; int lists print the same in ``repr`` as in JSON,
    and a move without cuts, the common case, writes ``[]`` without building a list.
    """

    def on_step(step, frm, to, deleted, events) -> None:
        if step and not events:
            cuts = [list(e) for e in deleted] if deleted else "[]"
            write(f'{{"deleted": {cuts}, "events": [], "from": {frm}, '
                  f'"step": {step}, "to": {to}}}\n')
        else:
            obj = {"step": step, "deleted": [list(e) for e in deleted]}
            if step:
                obj.update({"from": frm, "to": to, "events": list(events)})
            write(encode_line(obj) + "\n")

    return on_step


def _bits(nodes: int) -> Iterator[int]:
    """The ids in bitset ``nodes``, lowest first."""
    while nodes:
        low = nodes & -nodes
        yield low.bit_length() - 1
        nodes ^= low


class NnAgent(AgentStrategy):
    """One hop per step along a currently-shortest path to a nearest unvisited node.

    Both the target and the hop break ties by lowest id, on the current
    graph, so deletions reroute it.  A search is one bitset BFS from the
    walker that stops at the first level holding an unvisited node; the
    target is the lowest such id.  Walking back from it through the BFS
    levels keeps, at each distance i, the band of nodes on a shortest path
    to the target; at distance 1 the lowest id is the hop.

    The walker searches again only when neither cache below holds:

    - *Bands.*  Until an edge is cut, while the walker stands on the hop it
      returned last, the target stays the lowest-id nearest unvisited node
      (a lower id one hop nearer would have tied before), and the next hop
      is the lowest neighbour in the next band.
    - *The last unvisited node.*  Once it is the only one left, its BFS
      levels are built once and repaired in place after each cut (Even &
      Shiloach, J. ACM 1981): an endpoint of a cut with no neighbour one
      level nearer rises one level, and so may the nodes one level further
      out that it leaves.  A node pushed past n − 1 has no path left.  The
      hop is the lowest neighbour one level nearer than the walker, the
      hop the bands would give.
    """

    name = "nn"
    unvisited = 0  # bitset, set by reset

    def reset(self, graph: Graph, start: int) -> None:
        self.masks = graph.masks
        self.unvisited = ((1 << graph.n) - 1) ^ (1 << start)
        self.bands: list[int] = []  # the next hop's band last, the target's first
        self.hop = -1  # the hop the bands are for
        self.levels: list[int] | None = None  # the last unvisited node's, once built

    def cut(self, edges: tuple[Edge, ...]) -> None:
        self.bands.clear()
        if self.levels is not None:
            self._repair(self.masks, self.levels, self.dist, [v for e in edges for v in e])

    def decide(self, graph: Graph, visited: set[int], pos: int) -> int | None:
        unvisited = self.unvisited = self.unvisited & ~(1 << pos)
        if not unvisited:
            return None
        bands = self.bands
        if bands:
            if pos == self.hop:
                near = self.masks[pos] & bands.pop()
                self.hop = (near & -near).bit_length() - 1
                return self.hop
            bands.clear()
        if not unvisited & (unvisited - 1):
            return self._toward_last(graph, pos)
        levels = []
        for level in bit_levels(graph, pos):
            hits = level & unvisited
            if hits:
                break
            levels.append(level)
        else:
            return None
        back = hits & -hits
        if len(levels) > 1:  # a walk of several hops: keep its bands
            masks = self.masks
            for level in reversed(levels[1:]):
                bands.append(back)
                back = neighbors_of(masks, back) & level
        self.hop = (back & -back).bit_length() - 1
        return self.hop

    def _toward_last(self, graph: Graph, pos: int) -> int | None:
        """The hop toward the one unvisited node, on its repaired BFS levels."""
        n = graph.n
        if self.levels is None:
            self.levels = [*bit_levels(graph, self.unvisited.bit_length() - 1)]
            self.dist = [n] * n  # n: no path to the target
            for d, level in enumerate(self.levels):
                for v in _bits(level):
                    self.dist[v] = d
        d = self.dist[pos]
        if d == n:
            return None
        near = self.masks[pos] & self.levels[d - 1]
        return (near & -near).bit_length() - 1

    @staticmethod
    def _repair(masks: list[int], levels: list[int], dist: list[int], ends: list[int]) -> None:
        """Raise the labels the cuts at ``ends`` made too low, level by level.

        A node keeps its level d while it has a neighbour at d − 1; the
        candidates at d are the cut endpoints there, the nodes that rose
        from d − 1, and the neighbours at d of those.  No simple path has
        more than n − 1 hops, so a node that would rise past n − 1 is cut
        off from the target.
        """
        n = len(dist)
        todo: dict[int, int] = {}
        for v in ends:
            if 0 < dist[v] < n:
                todo[dist[v]] = todo.get(dist[v], 0) | 1 << v
        while todo:
            d = min(todo)
            cand = todo.pop(d)
            below = levels[d - 1]
            if below:  # one node of the level below holds most candidates in dense graphs
                cand &= ~masks[below.bit_length() - 1]
            if not cand:
                continue
            if cand.bit_count() <= below.bit_count():
                held = sum(1 << v for v in _bits(cand) if masks[v] & below)
            else:
                held = neighbors_of(masks, below)
            rise = cand & ~held
            if not rise:
                continue
            levels[d] ^= rise
            if d == n - 1:
                for v in _bits(rise):
                    dist[v] = n
                continue
            if d + 1 == len(levels):
                levels.append(0)
            todo[d + 1] = todo.get(d + 1, 0) | rise | (neighbors_of(masks, rise) & levels[d + 1])
            levels[d + 1] |= rise
            for v in _bits(rise):
                dist[v] = d + 1


class DfsRestartAgent(AgentStrategy):
    """Depth-first walker that scraps all state and starts over on a failed backtrack.

    Forward moves take the lowest-id neighbor not yet seen in the current
    search; backtracking retraces the walker's own stack.  If the stack edge
    has been deleted, the walker begins a completely new search rooted where
    it stands.  It halts when a search finishes back at its root.
    """

    name = "dfs-restart"

    def reset(self, graph: Graph, start: int) -> None:
        self.masks = graph.masks
        self.stack: list[int] = []
        self.seen = 1 << start  # bitset of the nodes the current search has reached
        self.attempt = 1
        self.last_kind: str | None = None

    def decide(self, graph: Graph, visited: set[int], pos: int) -> int | None:
        masks = self.masks
        stack = self.stack
        while True:
            fresh = masks[pos] & ~self.seen
            if fresh:
                low = fresh & -fresh
                stack.append(pos)
                self.seen |= low
                self.last_kind = "forward"
                return low.bit_length() - 1
            if stack:
                parent = stack[-1]
                if masks[pos] >> parent & 1:
                    stack.pop()
                    self.last_kind = "backtrack"
                    return parent
                # Stack edge gone: forget everything, search anew from here.
                stack.clear()
                self.seen = 1 << pos
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
        self.schedule = schedule

    def reset(self, graph: Graph, start: int) -> Sequence[Edge]:
        super().reset(graph, start)
        self.schedule.check(graph)
        return self.schedule.edges_at(0)

    def react(self, graph: Graph, visited: set[int], step: int, frm: int,
              to: int) -> Sequence[Edge]:
        return self.schedule.edges_at(step)


class CliqueAdversary(Adversary):
    """The complete-graph strategy that forces at least n·(n−1)/2 steps.

    It waits until n−1 distinct nodes are visited, then isolates the last
    unvisited node x_1 behind a growing chain: every arrival next to the
    current target x_i costs that edge, and when only two non-chain neighbors
    z, z' remain, the first of them the agent reaches is cut off on both sides
    and the other becomes x_{i+1}.  The agent can never stand on a chain node,
    and the survivors form a path it must walk end to end.

    It keeps only the target ``x``, the chain node ``prev_x`` before it and
    the phase number.  Only this adversary deletes edges, and ``play_game``
    applies a step's cuts after ``react`` returns, so the target's live
    neighbors adj[x] − {prev_x} are those the last reaction left: three or
    more while it cuts, exactly z and z' while it waits, fewer once dormant.
    After any move's cuts land the live set is adj[x] − {prev_x, to}, for
    the new x and prev_x, so one check reports a new z-pair or dormancy.
    """

    name = "clique"

    def reset(self, graph: Graph, start: int) -> list[Edge]:
        super().reset(graph, start)
        n = graph.n
        if n < 4:
            raise GameError(f"clique adversary needs n >= 4, got {n}")
        if graph.edge_count != n * (n - 1) // 2:
            raise GameError("clique adversary requires a complete initial graph")
        self.x: int | None = None
        self.prev_x: int | None = None
        self.phase = 0
        return []

    def react(self, graph: Graph, visited: set[int], step: int, frm: int, to: int) -> list[Edge]:
        adj, x, prev_x, events = graph.adjacency, self.x, self.prev_x, self.events
        if x is None:  # waiting for the last unvisited node
            if len(visited) < graph.n - 1:
                return []
            (x,) = set(range(graph.n)) - visited
            cuts = [(to, x)]
        elif to == prev_x or to not in adj[x]:
            return []
        else:
            live = len(adj[x]) - (prev_x in adj[x])
            if live < 2:  # dormant
                return []
            cuts = [(to, x)]
            if live == 2:  # the agent reached z: cut it off, z' is the next target
                (z_prime,) = adj[x] - {prev_x, to}
                events.append({"kind": "phase-end", "phase": self.phase,
                               "z": to, "z_prime": z_prime, "step": step})
                cuts.append((to, z_prime))
                x, prev_x = z_prime, x
        if x != self.x:  # a phase starts
            self.x, self.prev_x, self.phase = x, prev_x, self.phase + 1
            events.append({"kind": "phase-start", "phase": self.phase, "x": x, "step": step})
        live = len(adj[x]) - (prev_x in adj[x]) - (to in adj[x])
        if live == 2:
            events.append({"kind": "z-pair", "phase": self.phase,
                           "pair": sorted(adj[x] - {prev_x, to}), "step": step})
        elif live < 2:
            events.append({"kind": "dormant", "phase": self.phase, "step": step})
        return cuts


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
        self.trap = trap

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
        return ()


def make_agent(name: str) -> AgentStrategy:
    """A fresh agent by its command-line name."""
    if name == "nn":
        return NnAgent()
    if name == "dfs-restart":
        return DfsRestartAgent()
    raise GraphError(f"unknown agent {name!r} (expected nn or dfs-restart)")


def arena(spec: str, n: int, graph: Graph | None = None) -> tuple[Graph, Adversary, int]:
    """Graph, adversary and step floor for a duel against none, clique or
    killer: on ``graph`` when one is given, else on the arena's own graph of
    ``n`` nodes.  The floor is the steps the arena forces on any agent: one
    step per new node (none), every clique edge once (clique), or a spanning
    tree walked both ways (killer)."""
    if spec not in ("none", "clique", "killer"):
        raise GraphError(f"unknown adversary {spec!r} (expected none, clique or killer)")
    if spec == "killer":
        trap = build_dfs_killer(n)  # n is the dfs-killer family's only parameter
        if graph is not None and trap.graph != graph:
            raise GraphError("input graph does not match its dfs-killer parameters")
        return trap.graph, KillerAdversary(trap), 2 * (n - 1)
    graph = complete_graph(n) if graph is None else graph
    if spec == "none":
        return graph, NullAdversary(), n - 1
    return graph, CliqueAdversary(), n * (n - 1) // 2


def killer_script(trap: DfsTrap, max_steps: int | None = None) -> FailureSchedule:
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

    trace = play_game(DfsRestartAgent(), KillerAdversary(trap), trap.graph, 0, max_steps, keep_cuts)
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
