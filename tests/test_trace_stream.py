"""Streamed traces: the bytes of the per-step encoder they replaced, memory
that does not grow with the run, and no trace at all from a failed run."""

import contextlib
import gc
import io
import json
import os
import random
import stat
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nntrav import simulator
from nntrav.cli import main
from nntrav.games import (
    Adversary,
    CliqueAdversary,
    DfsRestartAgent,
    KillerAdversary,
    NnAgent,
)
from nntrav.graph import GraphError, complete_graph, instance_from_json_obj
from nntrav.layered_ring import build_dfs_killer
from nntrav.simulator import FailureSchedule, trace_writer

from helpers import (
    game_lines_oracle,
    play_recorded,
    random_connected_graph,
    random_schedule,
    run_recorded,
    sim_lines_oracle,
)

INPUTS = Path(__file__).with_name("golden") / "inputs"
RING = INPUTS / "ring.json"
AGENTS = {"nn": NnAgent, "dfs-restart": DfsRestartAgent}


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def ring_schedule(tmp_path):
    """A schedule on the golden ring with a pre-run cut, a two-cut step and a
    late cut; returns its path and parsed form."""
    edges = json.loads(RING.read_text())["edges"]
    doc = {"deletions": [{"iter": 0, "edges": [edges[0]]},
                         {"iter": 2, "edges": [edges[5], edges[9]]},
                         {"iter": 5, "edges": [edges[30]]}]}
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    return path, FailureSchedule.from_json_obj(doc)


def arena(spec, tmp_path):
    """CLI arguments, graph and a fresh adversary for one duel arena."""
    if spec == "none":
        return ["--n", 6], complete_graph(6), Adversary()
    if spec == "clique":
        return ["--n", 6], complete_graph(6), CliqueAdversary()
    if spec == "killer":
        trap = build_dfs_killer(12)
        return ["--n", 12], trap.graph, KillerAdversary(trap)
    path, schedule = ring_schedule(tmp_path)
    graph, _ = instance_from_json_obj(json.loads(RING.read_text()))
    return [f"schedule:{path}", "--input", RING], graph, schedule


def expected_game(agent, spec, tmp_path, budget):
    """The oracle's trace text and exit code, or None and 2 when the run fails."""
    _, graph, adv = arena(spec, tmp_path)
    try:
        trace, steps = play_recorded(AGENTS[agent](), adv, graph, 0, budget)
    except GraphError:
        return None, 2
    text = "".join(line + "\n" for line in game_lines_oracle(trace, steps))
    return text, 3 if trace.outcome == "budget-exhausted" else 0


@pytest.mark.parametrize("spec", ["none", "clique", "killer", "schedule"])
@pytest.mark.parametrize("agent", sorted(AGENTS))
def test_duel_traces_match_the_per_step_encoder(tmp_path, agent, spec):
    args, _, _ = arena(spec, tmp_path)
    argv = ["duel", agent, *args] if spec == "schedule" else ["duel", agent, spec, *args]
    full, _ = expected_game(agent, spec, tmp_path, None)
    budgets = [None]
    if full is not None:
        steps = json.loads(full.splitlines()[-1])["steps"]
        budgets.append(steps // 2)  # runs out mid-game: exit 3
    for budget in budgets:
        want, want_rc = expected_game(agent, spec, tmp_path, budget)
        extra = [] if budget is None else ["--budget", budget]
        trace = tmp_path / "trace.jsonl"
        got_rc, out, err = run([*argv, *extra, "--output", trace])
        assert got_rc == want_rc, err
        if want is None:
            assert not trace.exists() and out == "" and "error:" in err
            continue
        assert trace.read_text() == want
        assert json.loads(out)["steps"] == json.loads(want.splitlines()[-1])["steps"]
        assert run([*argv, *extra]) == (want_rc, want, "")
        trace.unlink()
    if spec == "killer" and agent == "dfs-restart":
        assert full.count('"deleted": [[') >= 2  # moves that cut edges, written by the f-string
    if spec == "schedule":
        lines = full.splitlines()
        assert json.loads(lines[0])["step"] == 0  # the pre-run cut
        assert any(len(json.loads(ln).get("deleted", [])) == 2 for ln in lines)
    if spec == "clique" and agent == "nn":
        assert any(len(json.loads(ln).get("events", [])) >= 2 for ln in full.splitlines())


@pytest.mark.parametrize("budget", [None, 3])
def test_simulate_traces_match_the_per_round_encoder(tmp_path, budget):
    path, schedule = ring_schedule(tmp_path)
    graph, _ = instance_from_json_obj(json.loads(RING.read_text()))
    trace, steps = run_recorded(graph, 0, schedule, budget)
    want = "".join(line + "\n" for line in sim_lines_oracle(trace, steps))
    want_rc = 3 if budget else 0
    extra = [] if budget is None else ["--budget", budget]
    argv = ["simulate", "--input", RING, "--schedule", path, *extra]
    assert run(argv) == (want_rc, want, "")
    out_file = tmp_path / "trace.jsonl"
    rc, out, _ = run([*argv, "--output", out_file])
    assert rc == want_rc and out_file.read_text() == want
    assert json.loads(out)["r1_r2"] == json.loads(out)["progress"] == "ok"


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=2, seed=5)
@settings(max_examples=60, deadline=None)
def test_round_lines_match_the_per_round_encoder(n, seed):
    """Random runs with pre-run and in-run cuts, to the end or a random
    budget: each record's line is the text of its JSON object.  The examples
    gather one label per round (where ``itemgetter`` returns the label, not a
    tuple) and two labels with a cut in round 2."""
    rng = random.Random(seed)
    graph = random_connected_graph(rng, n)
    budget = rng.choice([None, rng.randint(0, 4 * n)])
    trace, steps = run_recorded(graph, rng.randrange(n), random_schedule(rng, graph), budget)
    got = []
    write = trace_writer(got.append, n)
    for step in steps:
        write(step)
    got.extend(line + "\n" for line in trace.to_json_lines())
    assert got == [line + "\n" for line in sim_lines_oracle(trace, steps)]


BAD_SCHEDULE = {"deletions": [{"iter": 3, "edges": [[0, 200]]}]}


@pytest.mark.parametrize("old", [None, "earlier bytes\n"])
@pytest.mark.parametrize("cmd", ["simulate-output", "simulate-stdout", "duel-output"])
def test_a_failed_run_leaves_no_partial_trace(tmp_path, cmd, old):
    sched = tmp_path / "bad.json"
    sched.write_text(json.dumps(BAD_SCHEDULE))
    trace = tmp_path / "trace.jsonl"
    if old is not None:
        trace.write_text(old)
    argv = {
        "simulate-output": ["simulate", "--input", RING, "--schedule", sched, "--output", trace],
        "simulate-stdout": ["simulate", "--input", RING, "--schedule", sched],
        "duel-output": ["duel", "nn", f"schedule:{sched}", "--input", RING, "--output", trace],
    }[cmd]
    rc, out, err = run(argv)
    assert rc == 2 and out == "" and err.startswith("error:")
    if old is None:
        assert not trace.exists()
    else:
        assert trace.read_text() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["bad.json", *(["trace.jsonl"] if old is not None else [])])


@pytest.mark.parametrize("cmd", ["simulate", "duel"])
def test_a_run_that_fails_midway_keeps_the_old_trace(tmp_path, monkeypatch, cmd):
    """A run that fails after tens of KiB of its trace are on disk: the
    ``--output`` file keeps its old bytes and no ``.part`` file is left."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text("earlier bytes\n")
    written = []  # the partial trace's size when the run fails

    def fail():
        written.extend(p.stat().st_size for p in tmp_path.glob("*.part"))
        raise GraphError("injected failure")

    if cmd == "duel":  # 780 steps in full
        react = CliqueAdversary.react

        def late_react(self, graph, visited, step, frm, to):
            if step == 600:
                fail()
            return react(self, graph, visited, step, frm, to)

        monkeypatch.setattr(CliqueAdversary, "react", late_react)
        argv = ["duel", "nn", "clique", "--n", 40]
    else:  # the n = 96 ring terminates after 282 rounds
        ring = tmp_path / "ring.json"
        run(["generate", "lr-pow2", "--m", "6", "--k", "2", "--output", ring])
        sim_step = simulator.sim_step

        def late_step(state, graph, deletions=()):
            if state.iterations == 100:
                fail()
            return sim_step(state, graph, deletions)

        monkeypatch.setattr(simulator, "sim_step", late_step)
        argv = ["simulate", "--input", ring]
    rc, out, err = run([*argv, "--output", trace])
    assert rc == 2 and out == "" and "injected failure" in err
    assert len(written) == 1 and written[0] > 8192  # past the write buffer
    assert trace.read_text() == "earlier bytes\n"
    assert not list(tmp_path.glob("*.part"))


def test_an_output_that_is_no_regular_file_is_written_in_place(tmp_path):
    # a pipe (like /dev/stdout) cannot be replaced by a finished temporary file
    regular, fifo = tmp_path / "trace.jsonl", tmp_path / "trace.fifo"
    assert run(["duel", "nn", "clique", "--n", 5, "--output", regular])[0] == 0
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    rc, out, _ = run(["duel", "nn", "clique", "--n", 5, "--output", fifo])
    reader.join(timeout=30)
    assert rc == 0 and not reader.is_alive()
    assert got == [regular.read_text()] and stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.fifo", "trace.jsonl"]


def traced_peak(argv):
    """Exit code and tracemalloc peak of one in-process run, after a warm-up run."""
    run(argv)  # imports, caches
    gc.collect()  # the warm-up's cyclic garbage would count toward the peak
    tracemalloc.start()
    try:
        rc, _, _ = run(argv)
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["killer", "simulate"])
def test_memory_does_not_grow_with_run_length(tmp_path, family):
    # Both runs of a pair write more than the text file's 8 KiB write chunk,
    # so the buffering peaks alike and only kept records could tell them apart.
    trace = tmp_path / "trace.jsonl"
    if family == "killer":  # 7,948 steps in full; the trap needs n divisible by 3
        argv, short, full = ["duel", "dfs-restart", "killer", "--n", "42"], 2000, 4 * 42 ** 3
    else:  # the n = 96 ring terminates after 282 rounds
        ring = tmp_path / "ring.json"
        run(["generate", "lr-pow2", "--m", "6", "--k", "2", "--output", ring])
        argv, short, full = ["simulate", "--input", ring], 30, None
    rc_short, peak_short = traced_peak([*argv, "--budget", short, "--output", trace])
    short_lines = len(trace.read_text().splitlines())
    extra = [] if full is None else ["--budget", full]
    rc_full, peak_full = traced_peak([*argv, *extra, "--output", trace])
    full_lines = len(trace.read_text().splitlines())
    assert (rc_short, rc_full) == (3, 0)
    assert full_lines > 3 * short_lines
    assert max(peak_short, peak_full) <= 1.25 * min(peak_short, peak_full)
