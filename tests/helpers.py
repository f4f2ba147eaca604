"""Shared builders and oracles for the test suite: random connected graphs and
failure schedules, the small worked instances, a greedy-validity checker, and
recorders that keep the step streams of games and simulations together with
the per-step trace encoder those streams replaced."""

import ast
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from nntrav.games import GameTrace, play_game
from nntrav.graph import (
    CostFunction,
    Edge,
    Graph,
    GraphError,
    UnreachableError,
    bfs_levels,
    validate_traversal,
)
from nntrav.simulator import FailureSchedule, SimStep, SimTrace, encode_line, run_sim

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    """The benchmark tracer's LAYERS table (module -> traced names), read from
    ``perfbench/tracer.py`` without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


def random_connected_graph(rng: random.Random, n: int, extra: int | None = None) -> Graph:
    """Random spanning tree plus ``extra`` additional edges (default: up to n)."""
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        a = nodes[rng.randrange(i)]
        edges.add(tuple(sorted((a, nodes[i]))))
    want = rng.randint(0, n) if extra is None else extra
    tries = 0
    while n > 1 and want > 0 and tries < 50 * (want + 1):
        tries += 1
        u, v = rng.sample(range(n), 2)
        e = tuple(sorted((u, v)))
        if e not in edges:
            edges.add(e)
            want -= 1
    return Graph(n, sorted(edges))


def random_schedule(rng: random.Random, graph: Graph, rounds: int | None = None) -> FailureSchedule:
    """Failure schedule over distinct initial edges; never names an edge twice."""
    pool = list(graph.edges())
    rng.shuffle(pool)
    cut = pool[: rng.randint(0, len(pool))]
    if rounds is None:
        rounds = 2 * graph.n
    plan: dict[int, list] = {}
    for e in cut:
        plan.setdefault(rng.randint(0, rounds), []).append(e)
    return FailureSchedule({k: tuple(v) for k, v in plan.items()})


def metric_closure(graph: Graph) -> CostFunction:
    """All-pairs hop distances materialized as an explicit matrix."""
    return CostFunction.from_matrix(CostFunction.hop_metric(graph).as_matrix())


def unbounded_ratio_instance(x: int = 10) -> CostFunction:
    """Four-point matrix whose greedy traversal costs x+3 while a cost-5 tour exists.

    The pair (0,1) costs ``x``; raising ``x`` makes the greedy route from node 3
    arbitrarily worse than optimal, and for x > 4 the triangle inequality fails.
    """
    if x < 0:
        raise GraphError("x must be nonnegative")
    m = [
        [0, x, 2, 2],
        [x, 0, 2, 2],
        [2, 2, 0, 1],
        [2, 2, 1, 0],
    ]
    return CostFunction.from_matrix(m)


def explored_order(trace: SimTrace, steps: list[SimStep]) -> list[int]:
    """The start node, then each node in the round it was first explored."""
    return [trace.start, *(s.explored for s in steps if s.explored is not None)]


@dataclass(frozen=True)
class GameStep:
    """One step of a game's stream as ``play_game`` reports it to ``on_step``;
    step 0 holds the deletions made before the first move."""

    step: int
    frm: int | None
    to: int | None
    deleted: tuple[Edge, ...]
    events: tuple[dict, ...]

    def as_json_obj(self) -> dict:
        """The step's trace object as the game trace wrote it per step."""
        return {
            "step": self.step,
            "from": self.frm,
            "to": self.to,
            "deleted": [list(e) for e in self.deleted],
            "events": list(self.events),
        }


def play_recorded(agent, adv, graph: Graph, start: int,
                  max_steps: int | None = None) -> tuple[GameTrace, list[GameStep]]:
    """``play_game`` plus every record of its step stream, step 0 included."""
    steps: list[GameStep] = []

    def record(step, frm, to, deleted, events):
        steps.append(GameStep(step, frm, to, tuple(deleted), tuple(events)))

    return play_game(agent, adv, graph, start, max_steps, record), steps


def run_recorded(graph: Graph, start: int, schedule: FailureSchedule | None = None,
                 max_iterations: int | None = None) -> tuple[SimTrace, list[SimStep]]:
    """``run_sim`` plus every record of its round stream, iteration 0 included."""
    steps: list[SimStep] = []
    return run_sim(graph, start, schedule, max_iterations, steps.append), steps


def first_violation(check, steps: Sequence[SimStep]) -> str | None:
    """The first violation an online checker reports over the records, or None."""
    for step in steps:
        verdict = check(step)
        if verdict is not None:
            return verdict
    return None


def game_lines_oracle(trace: GameTrace, steps: list[GameStep]) -> list[str]:
    """A game's trace lines built per step with ``encode_line``, as the trace
    was written before steps were streamed: the pre-run line from
    ``pre_deleted``, each move, then the summary."""
    lines = []
    if trace.pre_deleted:
        lines.append(encode_line({"step": 0, "deleted": [list(e) for e in trace.pre_deleted]}))
    lines.extend(encode_line(s.as_json_obj()) for s in steps if s.step)
    lines.append(encode_line({
        "agent": trace.agent,
        "adversary": trace.adversary,
        "outcome": trace.outcome,
        "steps": trace.step_count,
        "visited": sorted(trace.visited),
    }))
    return lines


def sim_lines_oracle(trace: SimTrace, steps: list[SimStep]) -> list[str]:
    """A simulation's trace lines built per round with ``encode_line``, as the
    trace was written before rounds were streamed."""
    lines = []
    if trace.pre_deleted:
        lines.append(encode_line({"iter": 0, "deleted": [list(e) for e in trace.pre_deleted]}))
    lines.extend(encode_line({
        "iter": s.iteration,
        "pos_before": s.pos_before,
        "pos_after": s.pos_after,
        "moved": s.moved,
        "explored": s.explored,
        "dist": list(s.dist),
        "deleted": [list(e) for e in s.deleted],
    }) for s in steps if s.iteration)
    lines.append(encode_line({
        "outcome": trace.outcome,
        "iterations": trace.iterations,
        "explored": trace.explored,
        "visited": sorted(trace.visited()),
    }))
    return lines


def validate_nn_traversal(c: CostFunction, order: Sequence[int]) -> int | None:
    """None when every step goes to a nearest unvisited node; else the first bad index.

    The returned index is the position in ``order`` of the first node that was
    not a valid greedy choice.  Tie-breaking is irrelevant: any nearest node is
    accepted.
    """
    validate_traversal(order, c.n)
    if c.n == 1:
        return None
    unvisited = set(range(c.n))
    unvisited.discard(order[0])
    for i in range(1, c.n):
        prev, cur = order[i - 1], order[i]
        if c.kind == "matrix":
            row = c.row(prev)
            step = row[cur]
            if any(row[v] < step for v in unvisited):
                return i
        else:
            # hop metric: expand BFS levels from the previous node until the
            # chosen node appears; an unvisited node in an earlier level wins.
            for level in bfs_levels(c.graph, (prev,)):
                if cur in level:
                    break
                if not unvisited.isdisjoint(level):
                    return i
            else:
                raise UnreachableError(f"step {i}: node {cur} unreachable from {prev}")
        unvisited.discard(cur)
    return None
