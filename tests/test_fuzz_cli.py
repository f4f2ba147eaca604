"""Every file-reading CLI path, fed arbitrary JSON, ends in a documented exit code.

Each example writes JSON files, runs ``nntrav.cli.main`` in-process on them
and requires an exit code in {0, 2, 3, 4}: any other exception escaping
``main`` fails the test with its traceback.  The files are either arbitrary
JSON values (a ``st.recursive`` strategy over the CLI's own key words) or a
golden input with one key replaced by such a value or dropped, so that the
checks past the first shape test are reached too; some files are cut short,
so they are not JSON at all.  Every int is at most 12, so no example builds a
large instance.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nntrav.cli import main

INPUTS = Path(__file__).with_name("golden") / "inputs"
DOCUMENTED = {0, 2, 3, 4}

WORDS = st.sampled_from([
    "", "n", "edges", "weights", "family", "params", "sidecar", "routes", "hamiltonian",
    "deletions", "iter", "rows", "kind", "lr-ratio", "duel", "random-metric", "m", "k",
    "agent", "adversary", "nn", "dfs-restart", "none", "clique", "killer", "dfs-killer",
    "start", "budget", "max_cost", "preference", "scripted_ties",
])
SMALL = st.integers(-2, 12)
LEAVES = st.none() | st.booleans() | SMALL | st.floats(-2, 12) | WORDS
JSON = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=5) | st.dictionaries(WORDS, kids, max_size=5),
    max_leaves=20)
DROP = object()


def golden(*names: str) -> list:
    return [json.loads((INPUTS / name).read_text(encoding="utf-8")) for name in names]


def mutated(obj, key, value):
    """``obj`` with ``key`` set to ``value``, or removed for DROP."""
    obj = dict(obj)
    if value is DROP:
        obj.pop(key, None)
    else:
        obj[key] = value
    return obj


def near(*names: str):
    """The named golden inputs, as they are or with one key replaced or dropped,
    or an arbitrary JSON value."""
    docs = golden(*names)
    keys = sorted({key for doc in docs for key in doc})
    seeds = st.sampled_from(docs)
    return (JSON | seeds
            | st.builds(mutated, seeds, st.sampled_from(keys), JSON | st.just(DROP)))


EDGE = st.lists(SMALL, min_size=2, max_size=2) | JSON
INSTANCES = near("complete6.json", "disconnected.json", "four-point.json", "killer.json",
                 "metric.json", "small-ring.json", "zero-pair.json") | st.fixed_dictionaries(
    {"n": SMALL | JSON, "edges": st.lists(EDGE, max_size=12)},
    optional={"weights": st.lists(st.lists(SMALL, min_size=3, max_size=3) | JSON, max_size=8),
              "family": st.just("dfs-killer") | JSON, "params": JSON, "sidecar": JSON})
SCHEDULES = near("sched.json", "restart-sched.json", "walled-ring-sched.json") | st.fixed_dictionaries(
    {"deletions": st.lists(st.fixed_dictionaries({"iter": SMALL | JSON,
                                                  "edges": st.lists(EDGE, max_size=4)}),
                           max_size=4)})
ROWS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["lr-ratio", "duel", "random-metric"]) | JSON},
    optional={key: SMALL | JSON for key in ("n", "m", "k", "start", "budget", "max_cost")}
    | {"agent": st.sampled_from(["nn", "dfs-restart"]) | JSON,
       "adversary": st.sampled_from(["none", "clique", "killer", "schedule:x"]) | JSON})
SUITES = near("suite.json") | st.fixed_dictionaries({"rows": st.lists(ROWS, max_size=3)})
TIES = near("small-ring.sidecar.json") | st.lists(SMALL, max_size=12)
SIDECARS = st.none() | near("small-ring.sidecar.json", "metric.sidecar.json")

# argv per path; "{i}" is the fuzzed instance, "{s}" the second file
PATHS = {
    "traverse": (["traverse", "--input", "{i}"], SIDECARS),
    "traverse-scripted": (["traverse", "--input", "{i}", "--ties", "scripted:{s}"], TIES),
    "tree": (["tree", "--input", "{i}", "--ranks", "shuffle", "--seed", "1"], SIDECARS),
    "simulate": (["simulate", "--input", "{i}", "--schedule", "{s}", "--output", "{t}"],
                 SCHEDULES),
    "duel-none": (["duel", "dfs-restart", "none", "--input", "{i}"], st.none()),
    "duel-clique": (["duel", "nn", "clique", "--input", "{i}", "--output", "{t}"], st.none()),
    "duel-killer": (["duel", "dfs-restart", "killer", "--input", "{i}"], st.none()),
    "duel-schedule-nn": (["duel", "nn", "schedule:{s}", "--input", "{i}"], SCHEDULES),
    "duel-schedule-dfs": (["duel", "dfs-restart", "schedule:{s}", "--input", "{i}",
                           "--output", "{t}"], SCHEDULES),
    "bench": (["bench", "--suite", "{s}", "--seed", "3"], SUITES),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@given(data=st.data())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_files_end_in_a_documented_exit_code(path, data):
    argv, second = PATHS[path]
    joined = " ".join(argv)

    def write(path, value):
        text = json.dumps(value)
        path.write_text(text[:data.draw(st.sampled_from([len(text), len(text) // 2]))])

    with tempfile.TemporaryDirectory() as tmp:
        names = {"i": Path(tmp, "inst.json"), "s": Path(tmp, "second.json"),
                 "t": Path(tmp, "trace.jsonl")}
        if "{i}" in joined:
            write(names["i"], data.draw(INSTANCES, label="instance"))
        other = data.draw(second, label="second file")
        if "{s}" in joined:
            write(names["s"], other)
        elif other is not None:  # a sidecar sits beside the instance under its stem
            write(Path(tmp, "inst.sidecar.json"), other)
        args = [a.format(**{k: str(v) for k, v in names.items()}) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(args)
    assert rc in DOCUMENTED
