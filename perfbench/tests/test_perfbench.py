"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    KILLER_N, KILLER_STEPS, SIM_DELETIONS, _connected, deletion_schedule, deletion_setup,
    derive_seed, metric_setup,
)


def test_self_time_subtracts_merged_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),   # overlaps a: together they cover 1..6
        ("c", 2.0, 3.0, 1),   # grandchild: only a loses it
        ("d", 8.0, 12.0, 0),  # sticks out of root: clipped to 8..10
    ]
    self_s, calls = self_times(spans)
    assert self_s["root"] == pytest.approx(10 - 5 - 2)
    assert self_s["a"] == pytest.approx(2.0)
    assert self_s["b"] == pytest.approx(3.0)
    assert self_s["c"] == pytest.approx(1.0)
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1, "d": 1}


def test_self_time_sums_over_calls_of_one_name():
    spans = [("f", 0.0, 2.0, -1), ("g", 0.5, 1.0, 0), ("f", 3.0, 4.0, -1)]
    self_s, calls = self_times(spans)
    assert self_s["f"] == pytest.approx(2.5)
    assert calls["f"] == 2


def _fake_deletion_ops(tmp_path):
    """The deletion group's ops, set up against a stand-in generator."""
    def fake_generate(argv, stdout_path):
        edges = [[v, (v + d) % 60] for v in range(60) for d in (1, 2)]
        (tmp_path / argv[argv.index("--output") + 1]).write_text(
            json.dumps({"n": 60, "edges": edges}))
        stdout_path.write_bytes(b"")
        return 0
    (tmp_path / "out").mkdir()
    return {op.label: op for op in deletion_setup(tmp_path, 7, fake_generate)}


def _killer_runner(tmp_path, steps, trace):
    def runner(argv, stdout_path):
        (tmp_path / "traces" / "killer.jsonl").write_bytes(trace)
        stdout_path.write_text(json.dumps(
            {"outcome": "halted", "visited": KILLER_N, "steps": steps}))
        return 0
    runner.last_maxrss_kb = 0
    return runner


def test_checker_counts_a_wrong_step_count(tmp_path):
    op = _fake_deletion_ops(tmp_path)["duel-killer"]
    kept = {}
    samples = [run.invoke(_killer_runner(tmp_path, steps, b"x\n"), op, "cli", tmp_path, kept)
               for steps in (KILLER_STEPS, KILLER_STEPS - 1)]
    run.verify(samples, kept, None)
    assert samples[0].errors == []
    assert any("steps 46026" in e for e in samples[1].errors)


def test_checker_counts_a_flipped_trace_byte(tmp_path):
    op = _fake_deletion_ops(tmp_path)["duel-killer"]
    kept = {}
    good = b'{"step": 1}\n'
    flipped = bytes([good[0] ^ 1]) + good[1:]
    samples = [run.invoke(_killer_runner(tmp_path, KILLER_STEPS, t), op, "cli", tmp_path, kept)
               for t in (good, good, flipped)]
    run.verify(samples, kept, None)
    assert [bool(s.errors) for s in samples] == [False, False, True]
    assert samples[2].errors == ["outputs differ from the first pass"]
    # against a reference, even the first pass fails when its bytes differ
    samples[0].errors.clear()
    run.verify(samples[:1], kept, {"duel-killer": {"stdout": "0", "killer.jsonl": "0"}})
    assert samples[0].errors == ["outputs differ from the reference digests"]


def test_nonzero_exit_is_a_failure(tmp_path):
    op = _fake_deletion_ops(tmp_path)["duel-clique"]

    def crashed(argv, stdout_path):
        stdout_path.write_bytes(b"")
        return 1
    crashed.last_maxrss_kb = 0
    kept = {}
    samples = [run.invoke(crashed, op, "cli", tmp_path, kept)]
    run.verify(samples, kept, None)
    assert samples[0].errors == ["exit code 1"]


def test_inputs_repeat_for_a_seed_and_vary_across_seeds(tmp_path):
    edges = [[v, (v + d) % 200] for v in range(200) for d in (1, 2)]  # a ring with chords
    assert deletion_schedule(edges, 3) == deletion_schedule(edges, 3)
    assert deletion_schedule(edges, 3) != deletion_schedule(edges, 4)
    sched = deletion_schedule(edges, 3)["deletions"]
    assert len(sched) == SIM_DELETIONS
    gone = {tuple(d["edges"][0]) for d in sched}
    assert len(gone) == SIM_DELETIONS
    left = {tuple(e) for e in edges} - gone
    assert _connected(left, set(range(200)))
    with pytest.raises(ValueError):  # a path has no edge to spare
        deletion_schedule([[v, v + 1] for v in range(200)], 3)
    assert derive_seed(3, "ranks") == derive_seed(3, "ranks") != derive_seed(4, "ranks")

    def argvs(seed):
        seen = []

        def record(argv, stdout_path):
            seen.append(list(argv))
            return 0
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        ops = metric_setup(work, seed, record)
        return seen + [list(op.argv) for op in ops]
    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    p, _ = run.tail([float(i) for i in range(20)])
    assert p == 50
    p, value = run.tail([float(i) for i in range(1000)])
    assert (p, value) == (99, 989.0)


def test_benchmark_json_lists_exactly_what_the_runs_report():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_tracer_wraps_imported_copies_and_restores_them():
    run.import_nntrav()
    import nntrav.games
    import nntrav.graph
    import nntrav.nn
    originals = (nntrav.graph.nearest_of, nntrav.nn.nearest_of, nntrav.games.NnAgent.decide)
    tracer = Tracer()
    tracer.install()
    try:
        assert nntrav.nn.nearest_of is nntrav.graph.nearest_of is not originals[0]
        cost = nntrav.graph.CostFunction.hop_metric(nntrav.graph.path_graph(4))
        nntrav.nn.nn_traversal(cost, 0)
        nntrav.graph.CostFunction.from_matrix([[0, 1], [1, 0]])  # a classmethod
    finally:
        tracer.uninstall()
    assert (nntrav.graph.nearest_of, nntrav.nn.nearest_of,
            nntrav.games.NnAgent.decide) == originals
    assert isinstance(vars(nntrav.graph.CostFunction)["from_matrix"], classmethod)
    spans = tracer.take()
    names = [name for name, *_ in spans]
    assert names.count("graph.CostFunction.from_matrix") == 1
    assert names.count("nn.nn_traversal") == 1
    assert names.count("graph.nearest_of") == 3
    root = names.index("nn.nn_traversal")
    assert all(parent == root for name, _, _, parent in spans if name == "graph.nearest_of")
