"""``nntrav duel``: an agent against an edge-deleting adversary."""

from __future__ import annotations

import argparse

from .cli_io import _read_json, _trace_output, _trace_result
from .games import (
    Adversary,
    CliqueAdversary,
    ScheduleAdversary,
    arena,
    clique_stage_lengths,
    make_agent,
    play_game,
    trace_writer,
)
from .graph import Graph, GraphError, instance_from_json_obj
from .simulator import FailureSchedule


def _arena(spec: str, n: int | None, instance: object) -> tuple[Graph, Adversary, int | None]:
    """Graph, adversary and step floor (None for a schedule) for a duel: on the
    parsed instance JSON when one is given (not None), else generated at size ``n``."""
    graph = None
    if instance is not None:
        graph, cost = instance_from_json_obj(instance)
        if cost is not None:
            raise GraphError("duels run on plain graphs, not explicit cost matrices")
        n = graph.n
    if spec.startswith("schedule:"):
        if graph is None:
            raise GraphError("duel with a schedule adversary needs --input")
        schedule = FailureSchedule.from_json_obj(_read_json(spec.split(":", 1)[1]))
        return graph, ScheduleAdversary(schedule), None
    if spec not in ("none", "clique", "killer"):
        raise GraphError(
            f"unknown adversary {spec!r} (expected none, clique, killer, or schedule:FILE)")
    if n is None:
        raise GraphError(f"duel with the {spec} adversary needs --n or --input")
    if spec == "killer" and instance is not None and instance.get("family") != "dfs-killer":
        raise GraphError("killer duels need a dfs-killer instance (or --n)")
    return arena(spec, n, graph)


def run(args: argparse.Namespace) -> int:
    agent = make_agent(args.agent)
    instance = _read_json(args.input) if args.input else None
    graph, adv, floor = _arena(args.adversary, args.n, instance)
    with _trace_output(args.output) as write:
        trace = play_game(agent, adv, graph, args.start, args.budget, trace_writer(write))
        summary = {
            "agent": trace.agent,
            "adversary": trace.adversary,
            "n": trace.n,
            "steps": trace.step_count,
            "outcome": trace.outcome,
            "visited": len(trace.visited),
            "bound": None,
            "bound_ok": None,
        }
        if isinstance(adv, CliqueAdversary):
            summary["bound"] = floor
            summary["bound_ok"] = trace.step_count >= floor
            # a run that ends before phase 1 starts raised no event: one unfinished stage
            summary["stages"] = clique_stage_lengths(trace) if trace.events else [trace.step_count]
        for line in trace.to_json_lines():
            write(line + "\n")
    return _trace_result(trace, summary if args.output else None)
