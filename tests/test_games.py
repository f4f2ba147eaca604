import json
import random

import pytest

from nntrav import cli, games
from nntrav.games import (
    AgentStrategy,
    CliqueAdversary,
    DfsRestartAgent,
    GameError,
    KillerAdversary,
    NnAgent,
    NullAdversary,
    ScheduleAdversary,
    clique_stage_lengths,
    game_budget,
    growth_fit,
    killer_script,
    play_game,
    trace_writer,
)
from nntrav.graph import Graph, GraphError, complete_graph, path_graph
from nntrav.layered_ring import build_dfs_killer
from nntrav.simulator import FailureSchedule
from helpers import GameStep, play_recorded, random_connected_graph


def binom2(n):
    return n * (n - 1) // 2


def test_nn_walks_a_path_end_to_end():
    trace, steps = play_recorded(NnAgent(), NullAdversary(), path_graph(6), 0)
    assert trace.outcome == "halted"
    assert trace.step_count == 5
    assert trace.visited == set(range(6))
    assert [s.to for s in steps] == [1, 2, 3, 4, 5]


def test_nn_on_static_clique_needs_n_minus_1():
    trace = play_game(NnAgent(), NullAdversary(), complete_graph(4), 0)
    assert trace.step_count == 3
    assert trace.outcome == "halted"


def test_dfs_walks_every_tree_edge_twice():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 11)
        g = random_connected_graph(rng, n, extra=0)
        trace = play_game(DfsRestartAgent(), NullAdversary(), g, rng.randrange(n))
        assert trace.outcome == "halted"
        assert trace.step_count == 2 * (n - 1)
        assert trace.visited == set(range(n))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert play_game(DfsRestartAgent(), NullAdversary(), star, 0).step_count == 6
    assert play_game(DfsRestartAgent(), NullAdversary(), star, 1).step_count == 6


def test_illegal_halt_is_rejected():
    class Quitter(AgentStrategy):
        name = "quitter"

        def decide(self, graph, visited, pos):
            return None

    with pytest.raises(GameError):
        play_game(Quitter(), NullAdversary(), path_graph(3), 0)


def test_illegal_move_is_rejected():
    class Leaper(AgentStrategy):
        name = "leaper"

        def decide(self, graph, visited, pos):
            return (pos + 2) % graph.n

    with pytest.raises(GameError):
        play_game(Leaper(), NullAdversary(), path_graph(4), 0)


def test_moves_must_be_int_node_ids():
    class Sloppy(AgentStrategy):
        name = "sloppy"

        def __init__(self, move):
            self.move = move

        def decide(self, graph, visited, pos):
            return self.move

    for move in (True, 1.0, -1, 4):  # True == 1.0 == 1, a neighbor of 0
        with pytest.raises(GameError):
            play_game(Sloppy(move), NullAdversary(), path_graph(4), 0)


def test_budget_is_an_outcome_not_an_error():
    trace = play_game(NnAgent(), NullAdversary(), path_graph(30), 0, max_steps=2)
    assert trace.outcome == "budget-exhausted"
    assert trace.step_count == 2
    assert game_budget(3) == 72
    with pytest.raises(GraphError):
        game_budget(0)


def test_clique_k4_realizes_the_exact_accounting():
    trace, steps = play_recorded(NnAgent(), CliqueAdversary(), complete_graph(4), 0)
    assert trace.outcome == "halted"
    assert trace.step_count == 6
    assert clique_stage_lengths(trace) == [2, 1, 3]
    kinds = [ev["kind"] for s in steps for ev in s.events]
    assert [ev["kind"] for ev in trace.events] == kinds
    # the final pair collapses immediately: the machine goes dormant mid-game
    assert kinds == ["phase-start", "z-pair", "phase-end", "phase-start", "dormant"]


def test_clique_k8_stage_progression():
    trace = play_game(NnAgent(), CliqueAdversary(), complete_graph(8), 0)
    assert trace.step_count == 28 == binom2(8)
    assert clique_stage_lengths(trace) == [6, 5, 4, 3, 2, 1, 7]


def test_clique_forces_quadratic_work_from_both_agents():
    for n in range(4, 13):
        for agent in (NnAgent(), DfsRestartAgent()):
            trace = play_game(agent, CliqueAdversary(), complete_graph(n), 0)
            assert trace.outcome == "halted"
            assert trace.step_count >= binom2(n)
            assert trace.visited == set(range(n))
            assert trace.step_count <= game_budget(n)


def test_nn_hits_the_bound_exactly_on_larger_cliques():
    for n in (8, 16, 32, 64):
        trace = play_game(NnAgent(), CliqueAdversary(), complete_graph(n), 0)
        assert trace.step_count == binom2(n)


def test_clique_adversary_preconditions():
    with pytest.raises(GameError):
        play_game(NnAgent(), CliqueAdversary(), path_graph(5), 0)
    with pytest.raises(GameError):
        play_game(NnAgent(), CliqueAdversary(), complete_graph(3), 0)


def test_clique_games_are_deterministic():
    a = play_recorded(NnAgent(), CliqueAdversary(), complete_graph(6), 0)
    b = play_recorded(NnAgent(), CliqueAdversary(), complete_graph(6), 0)
    assert a[1] == b[1] and a[0] == b[0]


def test_stage_lengths_need_phase_events():
    trace = play_game(NnAgent(), NullAdversary(), path_graph(4), 0)
    with pytest.raises(GameError):
        clique_stage_lengths(trace)


class RecordingAdversary(CliqueAdversary):
    """The clique adversary, checking what ``play_game`` hands it on every
    call and raising one event of its own per step."""

    name = "recording"

    def reset(self, graph, start):
        self.calls = []
        self.seen = {start}
        return super().reset(graph, start)

    def react(self, graph, visited, step, frm, to):
        assert step == len(self.calls) + 1
        assert to in graph.adjacency[frm]  # nothing is cut before the adversary reacts
        self.seen.add(to)
        assert to in visited and visited == self.seen
        self.calls.append((step, frm, to))
        self.events.append({"kind": "seen", "step": step})
        return super().react(graph, visited, step, frm, to)


def test_adversary_sees_each_move_as_on_step_reports_it():
    adv = RecordingAdversary()
    trace, steps = play_recorded(NnAgent(), adv, complete_graph(6), 0)
    assert trace.outcome == "halted" and steps[0].step == 1
    assert sum(len(s.deleted) for s in steps) >= 5  # the game cuts edges
    assert [(s.step, s.frm, s.to) for s in steps] == adv.calls
    assert [c[0] for c in adv.calls] == list(range(1, trace.step_count + 1))
    for s in steps:
        # the adversary's own event and the clique's reach on_step at their step
        assert s.events[0] == {"kind": "seen", "step": s.step}
        assert all(ev["step"] == s.step for ev in s.events)
    assert [ev for s in steps for ev in s.events] == trace.events


class CutRecordingAgent(NnAgent):
    """The nn walker, noting the graph it is reset on and the step of each
    ``cut`` call with its edges."""

    def reset(self, graph, start):
        self.start_adjacency = [set(nbrs) for nbrs in graph.adjacency]
        self.moves, self.cuts = 0, []
        super().reset(graph, start)

    def decide(self, graph, visited, pos):
        self.moves += 1
        return super().decide(graph, visited, pos)

    def cut(self, edges):
        self.cuts.append((self.moves, tuple(edges)))
        super().cut(edges)


@pytest.mark.parametrize("adv, graph", [
    (ScheduleAdversary(FailureSchedule(
        {0: ((3, 0),), 2: ((2, 1), (4, 5)), 3: ((1, 4),), 5: ((5, 0),)})),
     Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5)])),
    (CliqueAdversary(), complete_graph(6)),
], ids=["schedule", "clique"])
def test_agent_is_reset_on_the_pre_run_graph_and_told_each_steps_cuts(adv, graph):
    agent = CutRecordingAgent()
    trace, steps = play_recorded(agent, adv, graph, 0)
    assert trace.outcome == "halted"
    expected = graph.copy()
    for u, v in trace.pre_deleted:
        expected.delete_edge(u, v)
    assert agent.start_adjacency == expected.adjacency
    told = [(s.step, s.deleted) for s in steps if s.step and s.deleted]
    assert len(told) >= 3  # the game cuts on several steps
    assert agent.cuts == told


def test_schedule_adversary_cuts_and_reroutes():
    # cutting (1,2) after the first step forces the nn walker back around
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    sched = FailureSchedule({1: ((1, 2),)})
    trace, steps = play_recorded(NnAgent(), ScheduleAdversary(sched), g, 0)
    assert trace.outcome == "halted"
    assert steps[0].deleted == ((1, 2),)
    assert [s.to for s in steps] == [1, 0, 3, 2]


def test_schedule_adversary_pre_run_deletions():
    sched = FailureSchedule({0: ((0, 3),)})
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    trace, steps = play_recorded(NnAgent(), ScheduleAdversary(sched), g, 0)
    assert trace.pre_deleted == ((0, 3),)
    assert steps[0] == GameStep(0, None, None, ((0, 3),), ())
    assert [s.to for s in steps[1:]] == [1, 2, 3]


def test_deleting_a_missing_edge_is_an_error():
    sched = FailureSchedule({1: ((0, 3),)})  # not an edge of the path
    with pytest.raises(GraphError):
        play_game(NnAgent(), ScheduleAdversary(sched), path_graph(4), 0)


def test_arena_refuses_unknown_adversaries():
    with pytest.raises(GraphError, match="unknown adversary 'gremlin'"):
        games.arena("gremlin", 6)


@pytest.mark.parametrize("spec, sizes, floor", [
    ("none", (1, 4, 9), lambda n: n - 1),
    ("clique", (4, 6, 11), binom2),
    ("killer", (12, 15, 24), lambda n: 2 * (n - 1)),
])
def test_arena_floors(spec, sizes, floor):
    """One step per new node, every clique edge once, or the trap's spanning
    tree walked both ways; the arena's graph has the asked size."""
    for n in sizes:
        graph, adv, got = games.arena(spec, n)
        assert got == floor(n) and graph.n == n and adv.name == spec


def test_killer_numbers_on_the_smallest_trap():
    trap = build_dfs_killer(12)
    trace, steps = play_recorded(DfsRestartAgent(), KillerAdversary(trap), trap.graph, 0,
                                 4 * 12**3)
    assert trace.outcome == "halted"
    assert trace.step_count == 67 == len(steps)
    cuts = [e for s in steps for e in s.deleted]
    assert cuts == [(1, 2), (1, 3), (9, 10), (2, 3), (9, 11)]
    assert all(e not in trap.tree_edges for e in cuts)
    assert trace.step_count > 2 * (12 - 1)  # strictly worse than the static walk


def test_killer_script_replays_identically():
    trap = build_dfs_killer(12)
    live = play_recorded(DfsRestartAgent(), KillerAdversary(trap), trap.graph, 0, 4 * 12**3)
    script = killer_script(trap)
    replay = play_recorded(DfsRestartAgent(), ScheduleAdversary(script), trap.graph, 0,
                           4 * 12**3)
    assert [(s.frm, s.to, s.deleted) for s in replay[1]] == [
        (s.frm, s.to, s.deleted) for s in live[1]
    ]
    assert replay[0].outcome == "halted"


def test_killer_script_truncation_is_an_error():
    trap = build_dfs_killer(12)
    with pytest.raises(GameError):
        killer_script(trap, max_steps=10)


def test_killer_rejects_other_agents():
    trap = build_dfs_killer(12)
    with pytest.raises(GameError):
        play_game(NnAgent(), KillerAdversary(trap), trap.graph, 0)


def test_killer_checks_its_graph():
    trap = build_dfs_killer(12)
    with pytest.raises(GameError):
        play_game(DfsRestartAgent(), KillerAdversary(trap), complete_graph(12), 0)


def test_killer_grows_superquadratically():
    sizes, steps = [], []
    for n in (12, 24, 48):
        trap = build_dfs_killer(n)
        trace = play_game(DfsRestartAgent(), KillerAdversary(trap), trap.graph, 0, 4 * n**3)
        assert trace.outcome == "halted"
        sizes.append(n)
        steps.append(trace.step_count)
    assert steps == [67, 1131, 12379]
    # quadratic strategies stay near 8 * ratio^2 when n doubles; this doesn't
    assert steps[2] / steps[1] > 8


def test_growth_fit_slopes():
    assert growth_fit([10, 20, 40, 80], [7, 7, 7, 7]) == pytest.approx(0.0)
    assert growth_fit([2, 4, 8, 16], [2, 4, 8, 16]) == pytest.approx(1.0)
    assert growth_fit([2, 4, 8, 16], [8, 64, 512, 4096]) == pytest.approx(3.0)


def test_growth_fit_validation():
    with pytest.raises(GraphError):
        growth_fit([1, 2, 3], [1, 2, 3])
    with pytest.raises(GraphError):
        growth_fit([1, 2, 2, 3], [1, 1, 1, 1])
    with pytest.raises(GraphError):
        growth_fit([1, 2, 3, 4], [1, 0, 1, 1])


def test_trace_json_lines():
    sched = FailureSchedule({0: ((0, 3),), 1: ((1, 2),)})
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    out = []
    trace = play_game(NnAgent(), ScheduleAdversary(sched), g, 0, on_step=trace_writer(out.append))
    assert all(line.endswith("\n") for line in out)
    lines = [*out, *(line + "\n" for line in trace.to_json_lines())]
    assert json.loads(lines[0]) == {"step": 0, "deleted": [[0, 3]]}
    summary = json.loads(lines[-1])
    assert summary["agent"] == "nn" and summary["adversary"] == "schedule"
    assert summary["outcome"] == trace.outcome
    assert summary["steps"] == trace.step_count
    body = [json.loads(ln) for ln in lines[1:-1]]
    assert all({"step", "from", "to", "deleted", "events"} <= set(s) for s in body)


def test_nn_agent_searches_once_per_target(tmp_path, monkeypatch, capsys):
    """Counts the nn walker's BFS runs: each duel searches for each target
    but the last and builds the last node's levels once, so the clique duel
    runs at most n + 1 and a duel with no cuts one for each node it goes to
    visit."""
    sources = []

    def counted(graph, source):
        sources.append(source)
        return real(graph, source)

    real = games.bit_levels
    monkeypatch.setattr(games, "bit_levels", counted)
    n = 32
    assert cli.main(["duel", "nn", "clique", "--n", str(n),
                     "--output", str(tmp_path / "clique.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == binom2(n)
    assert 0 < len(sources) <= n + 1

    sources.clear()
    ring = tmp_path / "ring.json"
    assert cli.main(["generate", "lr-pow2", "--m", "5", "--k", "2", "--output", str(ring)]) == 0
    capsys.readouterr()
    assert cli.main(["duel", "nn", "none", "--input", str(ring),
                     "--output", str(tmp_path / "ring.jsonl")]) == 0
    summary = json.loads(capsys.readouterr().out)
    targets = summary["visited"] - 1  # with no cuts every target is reached
    assert summary["steps"] > targets > 0
    assert 0 < len(sources) <= targets
