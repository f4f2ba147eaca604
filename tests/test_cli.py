import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nntrav
from nntrav.cli import main
from nntrav.cli_io import split_seed
from nntrav.layered_ring import build_lr

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json_line(out):
    return json.loads(out.strip().splitlines()[-1])


def test_split_seed_is_stable():
    assert split_seed(0, "x") == 12674342854747260999
    assert split_seed(0, "x") != split_seed(1, "x") != split_seed(1, "y")


def test_generate_writes_instance_and_sidecar(tmp_path, capsys):
    inst = tmp_path / "lr.json"
    rc, out, _ = run(capsys, "generate", "lr-pow2", "--m", "4", "--k", "2",
                     "--output", str(inst))
    assert rc == 0 and out == ""
    doc = json.loads(inst.read_text())
    assert doc["n"] == 35
    assert doc["family"] == "lr-pow2"
    assert doc["params"] == {"m": 4, "k": 2}
    side = json.loads((tmp_path / "lr.sidecar.json").read_text())
    assert side["costs"] == {"nn": 50, "opt": 34}
    assert len(side["routes"]["nn"]) == 35
    assert side["scripted_ties"] == side["routes"]["nn"]
    assert side["layer_ids"]["1"] == list(range(29, 35))


def test_generate_stdout_embeds_sidecar(capsys):
    rc, out, _ = run(capsys, "generate", "lr-general", "--nu", "6", "--k", "1")
    assert rc == 0
    doc = json.loads(out)
    assert "sidecar" in doc and "routes" in doc["sidecar"]


def test_generate_dot_format(capsys):
    rc, out, _ = run(capsys, "generate", "path", "--n", "4", "--format", "dot")
    assert rc == 0
    assert out.startswith("graph G {")
    assert "2 -- 3;" in out


def test_generate_random_metric_is_seeded(capsys):
    rc, a, _ = run(capsys, "generate", "random-metric", "--n", "6", "--seed", "9")
    rc2, b, _ = run(capsys, "generate", "random-metric", "--n", "6", "--seed", "9")
    rc3, c, _ = run(capsys, "generate", "random-metric", "--n", "6", "--seed", "10")
    assert rc == rc2 == rc3 == 0
    assert a == b != c
    doc = json.loads(a)
    assert len(doc["weights"]) == 15  # all pairs of 6 nodes


def test_generate_missing_parameter(capsys):
    rc, _, err = run(capsys, "generate", "lr-pow2", "--k", "1")
    assert rc == EXIT_VALIDATION
    assert "--m" in err


def test_traverse_layered_ring_report(tmp_path, capsys):
    inst = tmp_path / "lr.json"
    run(capsys, "generate", "lr-pow2", "--m", "4", "--k", "2", "--output", str(inst))
    rc, out, _ = run(capsys, "traverse", "--input", str(inst), "--start", "0")
    assert rc == 0
    rep = json.loads(out)
    assert rep["cost"] == 50
    assert rep["opt"] == 34
    assert rep["opt_source"] == "certificate"  # too big for the exact oracle
    assert rep["ratio"] == "50/34"
    assert rep["nn_bound"] == 154 and rep["within_nn_bound"]
    assert rep["aspect_bound"] == 105 and rep["within_aspect_bound"]
    assert rep["metric"] is True and rep["triangle_violation"] is None
    assert rep["lambda"] == {"1": 34, "2": 6, "3": 3, "4": 3, "5": 1, "6": 1, "7": 1, "8": 1}
    assert sum(rep["lambda"].values()) == rep["cost"]


PATH14 = {"n": 14, "edges": [[v, v + 1] for v in range(13)]}


@pytest.mark.parametrize("sidecar", [
    {"routes": [1]},
    {"routes": {"hamiltonian": [[0], *range(1, 14)]}},
    {"routes": {"hamiltonian": [1.0, 0, *range(2, 14)]}},
    {"routes": {"hamiltonian": list(range(13))}},
    {"routes": {"hamiltonian": [99, *range(1, 14)]}},
    [1],
])
def test_traverse_ignores_an_unusable_certificate(tmp_path, capsys, sidecar):
    # n = 14 is past the exact oracle, so only the certificate could supply opt
    inst = tmp_path / "p.json"
    inst.write_text(json.dumps(dict(PATH14, sidecar=sidecar)))
    rc, out, _ = run(capsys, "traverse", "--input", str(inst))
    assert rc == 0
    rep = json.loads(out)
    assert rep["opt"] is None and rep["opt_source"] is None and rep["cost"] == 13


FIG1 = {
    "n": 4,
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    "weights": [[0, 1, 10], [0, 2, 2], [0, 3, 2], [1, 2, 2], [1, 3, 2], [2, 3, 1]],
}


def test_traverse_four_point_violator(tmp_path, capsys):
    inst = tmp_path / "fig.json"
    inst.write_text(json.dumps(FIG1))
    pref = tmp_path / "pref.json"
    pref.write_text(json.dumps([3, 2, 0, 1]))
    rc, out, _ = run(capsys, "traverse", "--input", str(inst), "--start", "3",
                     "--ties", f"scripted:{pref}")
    assert rc == 0
    rep = json.loads(out)
    assert rep["order"] == [3, 2, 0, 1]
    assert rep["cost"] == 13
    assert rep["opt"] == 5 and rep["opt_source"] == "oracle"
    assert rep["ratio"] == "13/5"
    assert rep["metric"] is False
    assert rep["triangle_violation"] == [0, 2, 1]
    assert rep["aspect_bound"] == 17  # still computed; the flag says it is void


def test_traverse_scans_for_a_triangle_violation_once(tmp_path, capsys, monkeypatch):
    import nntrav.graph as graph

    scans = []
    scan = graph.check_triangle
    monkeypatch.setattr(graph, "check_triangle", lambda c: scans.append(c) or scan(c))
    inst = tmp_path / "fig.json"
    inst.write_text(json.dumps(FIG1))
    rc, out, _ = run(capsys, "traverse", "--input", str(inst), "--start", "3")
    assert rc == 0
    rep = json.loads(out)
    assert rep["metric"] is False and rep["triangle_violation"] == [0, 2, 1]
    assert len(scans) == 1


@pytest.mark.parametrize("cost", [10**12, 2**20 + 1])
def test_traverse_refuses_a_step_cost_past_the_profile_limit(tmp_path, capsys, cost):
    """The λ report holds one key per level, so a step cost above 2**20 is a
    validation error, not a MemoryError traceback."""
    inst = tmp_path / "pair.json"
    inst.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "weights": [[0, 1, cost]]}))
    rc, out, err = run(capsys, "traverse", "--input", str(inst))
    assert (rc, out) == (EXIT_VALIDATION, "")
    assert f"step cost {cost} is above the step-cost profile's limit of 1048576" in err


ABSURD_SIZES = {
    "lr-pow2-m70": ["generate", "lr-pow2", "--m", "70", "--k", "1"],
    "random-metric-n1e20": ["generate", "random-metric", "--n", "99999999999999999999"],
    "dfs-killer-n1e20": ["generate", "dfs-killer", "--n", "99999999999999999999"],
    "bench-lr-ratio-m80": ["bench", "--suite", "SUITE"],
}


@pytest.mark.parametrize("case", ABSURD_SIZES)
def test_a_size_past_machine_ints_exits_2_on_one_line(tmp_path, capsys, case):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"kind": "lr-ratio", "m": 80, "k": 1}]}))
    argv = [str(suite) if a == "SUITE" else a for a in ABSURD_SIZES[case]]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (EXIT_VALIDATION, "")
    assert err == "error: size too large for this machine (OverflowError)\n"


def test_a_size_past_memory_exits_2_on_one_line(tmp_path):
    """Only ever run under the child's own 256 MB address-space limit: without
    it this instance grows until the host kills the process."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    inst = tmp_path / "huge.json"
    inst.write_text('{"n": 99999999999999999999, "edges": []}')
    env = dict(os.environ, PYTHONPATH=str(Path(nntrav.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "nntrav.cli", "traverse", "--input", str(inst)],
                          capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
    assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
    assert proc.stderr == "error: size too large for this machine (MemoryError)\n"


def test_traverse_scripted_accepts_sidecar_files(tmp_path, capsys):
    inst = tmp_path / "lr.json"
    run(capsys, "generate", "lr-pow2", "--m", "3", "--k", "1", "--output", str(inst))
    side = tmp_path / "lr.sidecar.json"
    rc, out, _ = run(capsys, "traverse", "--input", str(inst), "--start", "0",
                     "--ties", f"scripted:{side}")
    assert rc == 0
    rep = json.loads(out)
    assert rep["order"] == json.loads(side.read_text())["routes"]["nn"]


def test_traverse_random_ties_reproducible(tmp_path, capsys):
    inst = tmp_path / "k.json"
    run(capsys, "generate", "complete", "--n", "9", "--output", str(inst))
    rc, a, _ = run(capsys, "traverse", "--input", str(inst), "--ties", "random",
                   "--seed", "5")
    rc2, b, _ = run(capsys, "traverse", "--input", str(inst), "--ties", "random",
                    "--seed", "5")
    assert rc == rc2 == 0 and a == b


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "k.json"
    run(capsys, "generate", "complete", "--n", "9", "--output", str(inst))
    monkeypatch.setenv("NNTRAV_SEED", "5")
    _, from_env, _ = run(capsys, "traverse", "--input", str(inst), "--ties", "random")
    _, from_flag, _ = run(capsys, "traverse", "--input", str(inst), "--ties", "random",
                          "--seed", "5")
    assert from_env == from_flag
    monkeypatch.setenv("NNTRAV_SEED", "not-a-number")
    rc, _, err = run(capsys, "traverse", "--input", str(inst), "--ties", "random")
    assert rc == EXIT_VALIDATION and "NNTRAV_SEED" in err


def test_io_errors_exit_4(tmp_path, capsys):
    rc, _, err = run(capsys, "traverse", "--input", str(tmp_path / "absent.json"))
    assert rc == EXIT_IO and "i/o error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "traverse", "--input", str(bad))
    assert rc == EXIT_IO and "invalid JSON" in err


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": []}))
    rc, _, err = run(capsys, "traverse", "--input", str(bad))
    assert rc == EXIT_VALIDATION and "error:" in err


def _duel_row(**fields):
    return {"rows": [dict({"kind": "duel", "n": 6, "agent": "nn", "adversary": "clique"},
                          **fields)]}


MALFORMED = [
    ("traverse", {"n": 3, "edges": [[0, 1, 2]]}),
    ("traverse", {"n": 3, "edges": [1]}),
    ("traverse", {"n": 3, "edges": 5}),
    ("traverse", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "weights": [5, 6, 7]}),
    ("traverse", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "weights": 5}),
    ("killer", {"n": 12, "edges": [[0, 1]], "family": "dfs-killer"}),
    ("killer", {"n": 12, "edges": [[0, 1]], "family": "dfs-killer", "params": {"n": "x"}}),
    ("bench", {"rows": [{"kind": "lr-ratio", "m": 3}]}),
    ("bench", {"rows": [{"kind": "duel", "n": 6}]}),
    ("bench", {"rows": [5]}),
    ("bench", {"rows": [{"kind": ["duel"]}]}),
    ("bench", {"rows": [{"kind": "lr-ratio", "m": "3", "k": 1}]}),
    ("bench", {"rows": [{"kind": "lr-ratio", "m": -1, "k": 1}]}),
    ("bench", _duel_row(n="6")),
    ("bench", _duel_row(start="0")),
    ("bench", _duel_row(budget="9")),
    ("bench", _duel_row(budget=-1)),
    ("bench", {"rows": [{"kind": "random-metric", "n": True}]}),
    ("simulate-schedule", {"deletions": [{"iter": 1, "edges": [["a", 1]]}]}),
    ("simulate-schedule", {"deletions": [{"iter": 1, "edges": 5}]}),
    ("duel-schedule", {"deletions": [{"iter": 1, "edges": [["a", 1]]}]}),
    ("scripted-ties", [[1], 2]),
    ("traverse", {"n": 2, "edges": [], "weights": [[0, 1, 9223372036854775808]]}),
    # bound formulas whose float operand overflows: cost ratio, MST, optimal cost
    ("traverse", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                  "weights": [[0, 1, 1], [1, 2, 1], [0, 2, 10**400]]}),
    ("tree", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]],
              "weights": [[0, 1, 10**400], [1, 2, 10**400], [0, 2, 10**400]]}),
    ("bench", {"rows": [{"kind": "random-metric", "n": 5, "max_cost": 10**400}]}),
]


@pytest.mark.parametrize("cmd, doc", MALFORMED, ids=[f"doc{i}" for i in range(len(MALFORMED))])
def test_malformed_shapes_exit_2_without_traceback(tmp_path, cmd, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    path3 = tmp_path / "p.json"
    path3.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    argv = {
        "traverse": ["traverse", "--input", str(bad)],
        "tree": ["tree", "--input", str(bad)],
        "killer": ["duel", "dfs-restart", "killer", "--input", str(bad)],
        "bench": ["bench", "--suite", str(bad)],
        "simulate-schedule": ["simulate", "--input", str(path3), "--schedule", str(bad)],
        "duel-schedule": ["duel", "nn", f"schedule:{bad}", "--input", str(path3)],
        "scripted-ties": ["traverse", "--input", str(path3), "--ties", f"scripted:{bad}"],
    }[cmd]
    env = dict(os.environ, PYTHONPATH=str(Path(nntrav.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "nntrav.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_VALIDATION
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


UNPARSEABLE = {
    "not-utf8": b'\xff\xfe{"n": 2}',
    "too-deep": b"[" * 200_000,
    "long-int": b'{"n": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("reader", ["instance", "sidecar", "schedule", "duel-schedule",
                                    "scripted-ties", "bench-suite"])
@pytest.mark.parametrize("kind", sorted(UNPARSEABLE))
def test_unparseable_json_exits_4_on_one_line(tmp_path, kind, reader):
    """Bytes json cannot take (not UTF-8, nested past the recursion limit, an
    int literal past the int-conversion limit) are invalid JSON in every
    reader: exit 4, one stderr line, no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNPARSEABLE[kind])
    path3 = tmp_path / "p.json"
    path3.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    if reader == "sidecar":
        bad = tmp_path / "p.sidecar.json"
        bad.write_bytes(UNPARSEABLE[kind])
    argv = {
        "instance": ["traverse", "--input", str(bad)],
        "sidecar": ["traverse", "--input", str(path3)],
        "schedule": ["simulate", "--input", str(path3), "--schedule", str(bad)],
        "duel-schedule": ["duel", "nn", f"schedule:{bad}", "--input", str(path3)],
        "scripted-ties": ["traverse", "--input", str(path3), "--ties", f"scripted:{bad}"],
        "bench-suite": ["bench", "--suite", str(bad)],
    }[reader]
    env = dict(os.environ, PYTHONPATH=str(Path(nntrav.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "nntrav.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith("i/o error: invalid JSON: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_simulate_static_path(tmp_path, capsys):
    inst = tmp_path / "p.json"
    run(capsys, "generate", "path", "--n", "6", "--output", str(inst))
    rc, out, _ = run(capsys, "simulate", "--input", str(inst), "--start", "0")
    assert rc == 0
    summary = last_json_line(out)
    assert summary["outcome"] == "terminated"
    assert summary["visited"] == [0, 1, 2, 3, 4, 5]


def test_simulate_with_schedule_and_checks(tmp_path, capsys):
    inst = tmp_path / "p.json"
    run(capsys, "generate", "path", "--n", "3", "--output", str(inst))
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps({"deletions": [{"iter": 1, "edges": [[1, 2]]}]}))
    trace_file = tmp_path / "trace.jsonl"
    rc, out, _ = run(capsys, "simulate", "--input", str(inst), "--schedule", str(sched),
                     "--output", str(trace_file))
    assert rc == 0
    summary = json.loads(out)
    assert summary["r1_r2"] == "ok" and summary["progress"] == "ok"
    assert summary["outcome"] == "terminated"
    lines = trace_file.read_text().strip().splitlines()
    assert json.loads(lines[0])["iter"] == 1
    assert json.loads(lines[0])["deleted"] == [[1, 2]]


def test_simulate_budget_exit_3(tmp_path, capsys):
    inst = tmp_path / "p.json"
    run(capsys, "generate", "path", "--n", "6", "--output", str(inst))
    rc, out, _ = run(capsys, "simulate", "--input", str(inst), "--budget", "1")
    assert rc == EXIT_BUDGET
    assert last_json_line(out)["outcome"] == "budget-exhausted"


def test_simulate_negative_budget_exits_2(tmp_path, capsys):
    inst = tmp_path / "p.json"
    run(capsys, "generate", "path", "--n", "6", "--output", str(inst))
    trace_file = tmp_path / "trace.jsonl"
    rc, out, err = run(capsys, "simulate", "--input", str(inst), "--budget", "-1",
                       "--output", str(trace_file))
    assert rc == EXIT_VALIDATION and "got -1" in err
    assert out == "" and not trace_file.exists()
    rc, out, _ = run(capsys, "simulate", "--input", str(inst), "--budget", "0")
    assert rc == EXIT_BUDGET
    assert last_json_line(out) == {"outcome": "budget-exhausted", "iterations": 0,
                                   "explored": 1, "visited": [0]}


def test_simulate_rejects_matrix_instances(tmp_path, capsys):
    inst = tmp_path / "fig.json"
    inst.write_text(json.dumps(FIG1))
    rc, _, err = run(capsys, "simulate", "--input", str(inst))
    assert rc == EXIT_VALIDATION and "plain graphs" in err


def test_simulate_checks_run_only_for_the_summary(tmp_path, capsys, monkeypatch):
    import nntrav.cmd_simulate as cmd_simulate

    calls = []
    def checker(name):
        def make(_):  # the online checkers take the graph or its node count
            calls.append(name)
            return lambda step: None
        return make

    monkeypatch.setattr(cmd_simulate, "check_r1_r2", checker("r1_r2"))
    monkeypatch.setattr(cmd_simulate, "check_progress", checker("progress"))
    inst = tmp_path / "p.json"
    run(capsys, "generate", "path", "--n", "5", "--output", str(inst))
    rc, out, _ = run(capsys, "simulate", "--input", str(inst))
    assert rc == 0 and "r1_r2" not in out
    assert calls == []
    rc, out, _ = run(capsys, "simulate", "--input", str(inst),
                     "--output", str(tmp_path / "t.jsonl"))
    assert rc == 0 and json.loads(out)["r1_r2"] == "ok"
    assert calls == ["r1_r2", "progress"]


def test_only_traverse_reads_a_neighboring_sidecar(tmp_path):
    inst = tmp_path / "pp.json"
    inst.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    (tmp_path / "pp.sidecar.json").write_text("{broken")
    env = dict(os.environ, PYTHONPATH=str(Path(nntrav.__file__).parents[1]))
    codes = {}
    for cmd in ("simulate", "tree", "traverse"):
        proc = subprocess.run([sys.executable, "-m", "nntrav.cli", cmd, "--input", str(inst)],
                              capture_output=True, text=True, env=env)
        assert "Traceback" not in proc.stderr
        codes[cmd] = proc.returncode
    assert codes == {"simulate": 0, "tree": 0, "traverse": EXIT_IO}


def test_duel_clique_summary(tmp_path, capsys):
    trace_file = tmp_path / "t.jsonl"
    rc, out, _ = run(capsys, "duel", "nn", "clique", "--n", "8", "--output", str(trace_file))
    assert rc == 0
    summary = json.loads(out)
    assert summary["steps"] == 28
    assert summary["bound"] == 28 and summary["bound_ok"] is True
    assert summary["stages"] == [6, 5, 4, 3, 2, 1, 7]
    lines = trace_file.read_text().strip().splitlines()
    assert json.loads(lines[-1])["steps"] == 28


def test_duel_on_instance_file_via_graph_alias(tmp_path, capsys):
    inst = tmp_path / "p.json"
    run(capsys, "generate", "path", "--n", "6", "--output", str(inst))
    rc, out, _ = run(capsys, "duel", "nn", "none", "--graph", str(inst))
    assert rc == 0
    assert last_json_line(out)["steps"] == 5


def test_duel_killer_by_size(capsys):
    rc, out, _ = run(capsys, "duel", "dfs-restart", "killer", "--n", "12",
                     "--budget", str(4 * 12**3))
    assert rc == 0
    summary = last_json_line(out)
    assert summary["steps"] == 67
    assert summary["outcome"] == "halted"


def test_duel_killer_from_generated_instance(tmp_path, capsys):
    inst = tmp_path / "trap.json"
    run(capsys, "generate", "dfs-killer", "--n", "12", "--output", str(inst))
    rc, out, _ = run(capsys, "duel", "dfs-restart", "killer", "--input", str(inst),
                     "--budget", str(4 * 12**3), "--output", str(tmp_path / "tagged.trace"))
    assert rc == 0
    assert json.loads(out)["steps"] == 67
    side = json.loads((tmp_path / "trap.sidecar.json").read_text())
    assert side["rule"] == "first-nontree-forward-edge-per-search"
    assert side["script"]["deletions"]  # replayable cut schedule ships with it
    # the trap is rebuilt from the graph's node count and checked against the
    # graph; neither "family" nor "params" is read
    doc = json.loads(inst.read_text())
    del doc["family"], doc["params"]
    inst.write_text(json.dumps(doc))
    rc, bare_out, _ = run(capsys, "duel", "dfs-restart", "killer", "--input", str(inst),
                          "--budget", str(4 * 12**3), "--output", str(tmp_path / "bare.trace"))
    assert (rc, bare_out) == (0, out)
    assert (tmp_path / "bare.trace").read_bytes() == (tmp_path / "tagged.trace").read_bytes()


def test_duel_killer_needs_matching_agent_and_instance(tmp_path, capsys):
    rc, _, err = run(capsys, "duel", "nn", "killer", "--n", "12")
    assert rc == EXIT_VALIDATION and "restarting-DFS" in err
    inst = tmp_path / "p.json"
    run(capsys, "generate", "path", "--n", "12", "--output", str(inst))
    rc, _, err = run(capsys, "duel", "dfs-restart", "killer", "--input", str(inst))
    assert rc == EXIT_VALIDATION and "dfs-killer" in err


def test_duel_budget_exhaustion_exit_3(capsys):
    rc, out, _ = run(capsys, "duel", "dfs-restart", "killer", "--n", "24",
                     "--budget", "100")
    assert rc == EXIT_BUDGET
    assert last_json_line(out)["outcome"] == "budget-exhausted"


def test_duel_negative_budget_exits_2(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    rc, out, err = run(capsys, "duel", "nn", "clique", "--n", "6", "--budget", "-1",
                       "--output", str(trace_file))
    assert rc == EXIT_VALIDATION and "got -1" in err
    assert out == "" and not trace_file.exists()
    rc, out, _ = run(capsys, "duel", "nn", "clique", "--n", "6", "--budget", "0")
    assert rc == EXIT_BUDGET
    assert last_json_line(out)["outcome"] == "budget-exhausted"
    assert last_json_line(out)["steps"] == 0


def test_duel_schedule_adversary(tmp_path, capsys):
    inst = tmp_path / "c4.json"
    inst.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps({"deletions": [{"iter": 1, "edges": [[1, 2]]}]}))
    rc, out, _ = run(capsys, "duel", "nn", f"schedule:{sched}", "--input", str(inst))
    assert rc == 0
    body = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [s["to"] for s in body[:-1]] == [1, 0, 3, 2]
    assert body[-1]["steps"] == 4


@pytest.mark.parametrize("edge, message", [
    ([0, 3], "edge (0, 3) is not in the graph"),
    ([0, 99], "invalid node id 99 for a graph on 4 nodes"),
], ids=["non-edge", "no-such-node"])
@pytest.mark.parametrize("cmd", ["simulate", "duel"])
def test_a_bad_scheduled_edge_exits_2_before_the_run(tmp_path, capsys, cmd, edge, message):
    """A scheduled edge not in the graph exits 2 even at a round the run on
    the 4-node path never reaches, and no trace is written."""
    inst, sched = tmp_path / "p.json", tmp_path / "s.json"
    run(capsys, "generate", "path", "--n", "4", "--output", str(inst))
    sched.write_text(json.dumps({"deletions": [{"iter": 1000, "edges": [edge]}]}))
    argv = {"simulate": ["simulate", "--input", str(inst), "--schedule", str(sched)],
            "duel": ["duel", "nn", f"schedule:{sched}", "--input", str(inst)]}[cmd]
    trace_file = tmp_path / "trace.jsonl"
    for extra in ([], ["--output", str(trace_file)]):
        rc, out, err = run(capsys, *argv, *extra)
        assert rc == EXIT_VALIDATION and out == "" and message in err
    assert not trace_file.exists() and not list(tmp_path.glob("*.part"))


def test_duel_argument_validation(capsys):
    rc, _, err = run(capsys, "duel", "walker", "none", "--n", "4")
    assert rc == EXIT_VALIDATION and "unknown agent" in err
    rc, _, err = run(capsys, "duel", "nn", "gremlin", "--n", "4")
    assert rc == EXIT_VALIDATION and "unknown adversary" in err
    rc, _, err = run(capsys, "duel", "nn", "clique")
    assert rc == EXIT_VALIDATION


def test_tree_reports(tmp_path, capsys):
    inst = tmp_path / "m.json"
    run(capsys, "generate", "random-metric", "--n", "8", "--seed", "5",
        "--output", str(inst))
    rc, out, _ = run(capsys, "tree", "--input", str(inst))
    assert rc == 0
    rep = json.loads(out)
    assert rep["ranks"] == list(range(8))
    assert len(rep["edges"]) == 7
    assert rep["mst"] <= rep["total"] <= rep["budget"]
    assert rep["bound_ok"] is True
    rc, again, _ = run(capsys, "tree", "--input", str(inst))
    assert again == out  # deterministic


def test_tree_shuffled_ranks_are_seeded(tmp_path, capsys):
    inst = tmp_path / "m.json"
    run(capsys, "generate", "random-metric", "--n", "8", "--seed", "5",
        "--output", str(inst))
    _, a, _ = run(capsys, "tree", "--input", str(inst), "--ranks", "shuffle", "--seed", "1")
    _, b, _ = run(capsys, "tree", "--input", str(inst), "--ranks", "shuffle", "--seed", "1")
    _, c, _ = run(capsys, "tree", "--input", str(inst), "--ranks", "shuffle", "--seed", "2")
    assert a == b
    assert json.loads(a)["ranks"] != json.loads(c)["ranks"]


def test_tree_on_non_metric_matrix(tmp_path, capsys):
    inst = tmp_path / "fig.json"
    inst.write_text(json.dumps(FIG1))
    rc, out, _ = run(capsys, "tree", "--input", str(inst))
    assert rc == 0
    rep = json.loads(out)
    assert rep["metric"] is False
    assert rep["budget"] is None and rep["bound_ok"] is None
    assert len(rep["edges"]) == 3


BENCH_SUITE = {
    "rows": [
        {"kind": "lr-ratio", "m": 6, "k": 2},
        {"kind": "lr-ratio", "m": 7, "k": 2},
        {"kind": "lr-ratio", "m": 8, "k": 2},
        {"kind": "lr-ratio", "m": 9, "k": 3},
        {"kind": "lr-ratio", "m": 10, "k": 3},
        {"kind": "lr-ratio", "m": 11, "k": 4},
        {"kind": "lr-ratio", "m": 12, "k": 4},
        {"kind": "duel", "agent": "nn", "adversary": "clique", "n": 8},
        {"kind": "duel", "agent": "nn", "adversary": "none", "n": 6},
        {"kind": "duel", "agent": "dfs-restart", "adversary": "killer", "n": 12,
         "budget": 6912},
        {"kind": "random-metric", "n": 7},
        {"kind": "random-metric", "n": 9},
    ]
}


def test_bench_suite_csv(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(BENCH_SUITE))
    rc, out, _ = run(capsys, "bench", "--suite", str(suite), "--seed", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# nntrav bench csv v1"
    assert lines[1] == "family,n,m,k,agent,adversary,value,bound,ratio,seed"
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    assert len(rows) == len(BENCH_SUITE["rows"])
    # the layered-ring worst-case ratio grows with the exponent
    ratios = [Fraction(r["ratio"]) for r in rows if r["family"] == "lr-pow2"]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    clique = next(r for r in rows if r["adversary"] == "clique")
    assert clique["value"] == clique["bound"] == "28"
    killer = next(r for r in rows if r["adversary"] == "killer")
    assert killer["value"] == "67" and killer["bound"] == "22"
    for r in rows:
        if r["family"] == "random-metric":
            assert int(r["value"]) <= int(r["bound"])
            assert r["seed"] != ""


def test_bench_lr_ratio_measures_the_canonical_cost(tmp_path, capsys):
    grid = [(m, k) for m in range(1, 8) for k in range(5)]
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"kind": "lr-ratio", "m": m, "k": k} for m, k in grid]}))
    rc, out, _ = run(capsys, "bench", "--suite", str(suite))
    assert rc == 0
    values = [int(line.split(",")[6]) for line in out.splitlines()[2:]]
    assert values == [build_lr(1 << m, k).nn_cost for m, k in grid]


def test_bench_is_reproducible_and_seed_sensitive(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"kind": "random-metric", "n": 8}]}))
    _, a, _ = run(capsys, "bench", "--suite", str(suite), "--seed", "3")
    _, b, _ = run(capsys, "bench", "--suite", str(suite), "--seed", "3")
    _, c, _ = run(capsys, "bench", "--suite", str(suite), "--seed", "4")
    assert a == b
    assert a.splitlines()[2] != c.splitlines()[2]


def test_bench_empty_suite(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": []}))
    rc, out, _ = run(capsys, "bench", "--suite", str(suite))
    assert rc == 0
    assert out == "# nntrav bench csv v1\nfamily,n,m,k,agent,adversary,value,bound,ratio,seed\n"


def test_bench_rejects_unknown_rows(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"kind": "mystery"}]}))
    rc, _, err = run(capsys, "bench", "--suite", str(suite))
    assert rc == EXIT_VALIDATION and "unknown kind" in err
    suite.write_text(json.dumps([1, 2]))
    rc, _, err = run(capsys, "bench", "--suite", str(suite))
    assert rc == EXIT_VALIDATION


def test_bench_duel_row_with_unknown_adversary_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [
        {"kind": "duel", "n": 6, "agent": "nn", "adversary": "gremlin"}]}))
    rc, out, err = run(capsys, "bench", "--suite", str(suite))
    assert rc == EXIT_VALIDATION and out == "" and "unknown adversary 'gremlin'" in err


@pytest.mark.parametrize("row, budget", [
    ({"kind": "duel", "n": 8, "agent": "nn", "adversary": "clique", "budget": 5}, 5),
    # the killer game at n = 69 takes 40,176 steps, past the default 8·69² = 38,088
    ({"kind": "duel", "n": 69, "agent": "dfs-restart", "adversary": "killer"}, 38088),
], ids=["clique-budget-5", "killer-default-budget"])
def test_bench_duel_row_out_of_budget_exits_3_without_csv(tmp_path, capsys, row, budget):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"kind": "lr-ratio", "m": 3, "k": 1}, row]}))
    out_path = tmp_path / "out.csv"
    rc, out, err = run(capsys, "bench", "--suite", str(suite), "--output", str(out_path))
    assert rc == EXIT_BUDGET and out == "" and not out_path.exists()
    assert f"bench duel row 1 exhausted its budget of {budget} steps" in err
    rc, out, _ = run(capsys, "bench", "--suite", str(suite))
    assert rc == EXIT_BUDGET and out == ""


@pytest.mark.parametrize("row, key", [
    ({"kind": "duel", "family": "path", "n": 6, "agent": "nn", "adversary": "none",
      "budjet": 2}, "family"),
    ({"kind": "lr-ratio", "m": 3, "k": 1, "start": 5}, "start"),
    ({"kind": "random-metric", "n": 5, "budget": 9}, "budget"),
])
def test_bench_rejects_keys_its_kind_does_not_read(tmp_path, capsys, row, key):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"kind": "lr-ratio", "m": 3, "k": 1}, row]}))
    rc, out, err = run(capsys, "bench", "--suite", str(suite))
    assert rc == EXIT_VALIDATION and out == ""
    assert f"row 1 has unknown key {key!r}" in err


def test_only_duels_build_neighbor_bitsets(monkeypatch, capsys):
    """Graph.masks is for the duel agents: traverse, tree and simulate, on hop
    and metric inputs alike, never ask for it."""
    import nntrav.graph

    def refuse(self):
        raise AssertionError("neighbor bitsets built")

    monkeypatch.setattr(nntrav.graph.Graph, "masks", property(refuse))
    monkeypatch.chdir(Path(__file__).with_name("golden") / "inputs")
    for argv in (["traverse", "--input", "ring.json"], ["traverse", "--input", "metric.json"],
                 ["tree", "--input", "metric.json"], ["tree", "--input", "ring.json"],
                 ["simulate", "--input", "ring.json", "--schedule", "sched.json"]):
        assert run(capsys, *argv)[0] == 0, argv
    with pytest.raises(AssertionError, match="bitsets built"):
        main(["duel", "nn", "none", "--n", "4"])
