"""``nntrav simulate``: the round walker under a failure schedule."""

from __future__ import annotations

import argparse

from .cli_io import _load_instance, _read_json, _trace_output, _trace_result
from .graph import GraphError
from .simulator import FailureSchedule, check_progress, check_r1_r2, run_sim, trace_writer


def run(args: argparse.Namespace) -> int:
    graph, cost, _ = _load_instance(args.input)
    if cost.kind != "hop":
        raise GraphError("simulate runs on plain graphs, not explicit cost matrices")
    schedule = FailureSchedule.from_json_obj(_read_json(args.schedule)) if args.schedule else None
    checks = {}
    if args.output:  # without a trace file only the trace is printed, so skip its checks
        checks = {"r1_r2": check_r1_r2(graph), "progress": check_progress(graph.n)}
    verdicts = dict.fromkeys(checks)
    with _trace_output(args.output) as write:
        write_step = trace_writer(write, graph.n)

        def on_step(step) -> None:
            write_step(step)
            for name, check in checks.items():
                if verdicts[name] is None:  # each check stops at its first violation
                    verdicts[name] = check(step)

        trace = run_sim(graph, args.start, schedule, args.budget, on_step)
        for line in trace.to_json_lines():
            write(line + "\n")
    summary = None
    if args.output:
        summary = {
            "outcome": trace.outcome,
            "iterations": trace.iterations,
            "explored": trace.explored,
            "n": trace.n,
            "r1_r2": verdicts["r1_r2"] or "ok",
            "progress": verdicts["progress"] or "ok",
        }
    return _trace_result(trace, summary)
