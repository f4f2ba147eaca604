"""The benchmark workloads: their inputs, op lists and output checks.

Two workloads split the program along the line most optimisations follow:
``hop`` runs everything on plain graphs (greedy traversal on the layered
ring, the round simulator under deletions, the clique and killer duels), so
every BFS-based path is in it; ``metric`` runs explicit cost matrices and
never runs a BFS, so it is the bypass case for every BFS change, and ``hop``
is the bypass case for the triangle scan, the trees and the Held-Karp
oracle.  (The ring and deletion op groups were one workload each at first;
two workloads leave room for 60 s runs, see NOTES.md.)

Every input the program reads is made here from the workload seed; the
program only ever receives files and explicit ``--seed`` values.  Each op
has a check that looks at its exit code and output; the checks run after
the timed invocation, never inside it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

RING_M, RING_K = 8, 3
RING_NN_COST = (RING_K + 1) * ((1 << RING_M) + 1) - 1  # 1027: the paper's greedy cost
METRIC_N, ORACLE_N = 140, 13
SIM_M, SIM_K, SIM_DELETIONS, SIM_LAST_ITER = 8, 3, 40, 1000
CLIQUE_N = 64
KILLER_N = 72
KILLER_BUDGET = 4 * KILLER_N ** 3  # the default 8n² budget is too small at n = 72
KILLER_STEPS = 46027


def derive_seed(seed: int, tag: str) -> int:
    """An independent child seed for one purpose; stable across platforms."""
    return int(hashlib.sha256(f"perfbench/{seed}/{tag}".encode()).hexdigest()[:12], 16)


@dataclass(frozen=True)
class Outcome:
    """What one invocation produced: stdout bytes and the files it wrote."""

    stdout: bytes
    files: dict[str, bytes]


@dataclass(frozen=True)
class Op:
    metric: str  # end-to-end metric family, e.g. "traverse" for traverse_s
    label: str  # unique within the workload
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files the op writes besides stdout, relative to the work dir
    check: Callable[[Outcome], str | None]  # None when the output is right


# Runs ``nntrav <argv>`` with the work directory as its current directory and
# stdout sent to the given file; returns the exit code.  Paths in argv are
# relative to the work directory, so outputs do not depend on where it is.
Runner = Callable[[list[str], Path], int]


def _json(out: Outcome) -> dict:
    return json.loads(out.stdout)


def _generate(run: Runner, argv: list[str], out: Path) -> None:
    rc = run(argv, out)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: nntrav {' '.join(argv)}")


# --- instances read back by the checks (independent of nntrav's parser) ------


def _loader(path: Path, parse=lambda obj: obj):
    """Read and parse ``path`` on first use; the checks run after set-up is done."""
    return cache(lambda: parse(json.loads(path.read_bytes())))


def _matrix(obj: dict) -> list[list[int]]:
    n = obj["n"]
    mat = [[0] * n for _ in range(n)]
    for u, v, w in obj["weights"]:
        mat[u][v] = mat[v][u] = w
    return mat


def greedy_error(report: dict, mat) -> str | None:
    """Recompute a traverse report on an explicit matrix: every step must go to a
    nearest unvisited node, and the step costs must add up to ``cost``."""
    order = report["order"]
    n = len(mat)
    if sorted(order) != list(range(n)):
        return "order is not a permutation of the nodes"
    unvisited = set(range(n))
    unvisited.discard(order[0])
    total = 0
    for a, b in zip(order, order[1:]):
        row = mat[a]
        if row[b] != min(row[x] for x in unvisited):
            return f"step {a}->{b} does not go to a nearest unvisited node"
        unvisited.discard(b)
        total += row[b]
    if total != report["cost"]:
        return f"cost {report['cost']} but the steps add up to {total}"
    return None


# --- ring ----------------------------------------------------------------------


def ring_setup(work: Path, seed: int, run: Runner) -> list[Op]:
    """Hop metric on a layered ring: sparse, and BFS-bound in traverse.  Not seeded."""
    inst = work / "ring.json"
    _generate(run, ["generate", "lr-pow2", "--m", str(RING_M), "--k", str(RING_K),
                    "--output", "ring.json"], work / "setup.out")
    side = _loader(work / "ring.sidecar.json")
    (work / "gen").mkdir(exist_ok=True)

    def check_generate(out: Outcome) -> str | None:
        nn_cost = json.loads(out.files["ring.sidecar.json"])["costs"]["nn"]
        if nn_cost != RING_NN_COST:
            return f"sidecar costs.nn is {nn_cost}, expected {RING_NN_COST}"
        if out.files["ring.json"] != inst.read_bytes():
            return "generated instance differs from the set-up copy"
        return None

    def check_traverse(scripted: bool):
        def check(out: Outcome) -> str | None:
            rep = _json(out)
            if rep["cost"] != side()["costs"]["nn"] or rep["cost"] != RING_NN_COST:
                return f"cost {rep['cost']}, expected {RING_NN_COST}"
            if rep["opt_source"] != "certificate":
                return f"opt_source is {rep['opt_source']!r}"
            if rep["within_nn_bound"] is not True or rep["within_aspect_bound"] is not True:
                return "a within_* flag is not true"
            if scripted and rep["order"] != side()["routes"]["nn"]:
                return "scripted order differs from routes.nn"
            return None
        return check

    return [
        Op("generate", "generate",
           ("generate", "lr-pow2", "--m", str(RING_M), "--k", str(RING_K),
            "--output", "gen/ring.json"),
           ("gen/ring.json", "gen/ring.sidecar.json"), check_generate),
        Op("traverse", "traverse", ("traverse", "--input", "ring.json"), (),
           check_traverse(False)),
        Op("traverse", "traverse-scripted",
           ("traverse", "--input", "ring.json", "--ties", "scripted:ring.sidecar.json"), (),
           check_traverse(True)),
    ]


# --- metric --------------------------------------------------------------------


def metric_setup(work: Path, seed: int, run: Runner) -> list[Op]:
    """Explicit random metrics: dense, no BFS, triangle check and JSON parse bound."""
    big, small = work / "metric.json", work / "oracle.json"
    big_seed = str(derive_seed(seed, "random-metric"))
    small_seed = str(derive_seed(seed, "oracle-metric"))
    _generate(run, ["generate", "random-metric", "--n", str(METRIC_N), "--seed", big_seed,
                    "--output", "metric.json"], work / "setup.out")
    _generate(run, ["generate", "random-metric", "--n", str(ORACLE_N), "--seed", small_seed,
                    "--output", "oracle.json"], work / "setup.out")
    big_mat, small_mat = _loader(big, _matrix), _loader(small, _matrix)
    (work / "gen").mkdir(exist_ok=True)

    def check_generate(out: Outcome) -> str | None:
        if out.files["metric.json"] != big.read_bytes():
            return "generated instance differs from the set-up copy"
        weights = json.loads(out.files["metric.json"])["weights"]
        if len(weights) != METRIC_N * (METRIC_N - 1) // 2:
            return f"{len(weights)} weight triples"
        return None

    def check_traverse(out: Outcome) -> str | None:
        rep = _json(out)
        if rep["metric"] is not True:
            return "random metric reported as non-metric"
        return greedy_error(rep, big_mat())

    def check_tree(out: Outcome) -> str | None:
        rep = _json(out)
        if rep["bound_ok"] is not True:
            return f"bound_ok is {rep['bound_ok']!r}"
        if not rep["mst"] <= rep["total"] <= rep["budget"]:
            return "tree total outside [mst, budget]"
        return None

    def check_oracle(out: Outcome) -> str | None:
        rep = _json(out)
        if rep["opt_source"] != "oracle" or rep["opt"] is None or rep["opt"] > rep["cost"]:
            return f"oracle opt {rep['opt']!r} ({rep['opt_source']}) against cost {rep['cost']}"
        return greedy_error(rep, small_mat())

    return [
        Op("generate", "generate",
           ("generate", "random-metric", "--n", str(METRIC_N), "--seed", big_seed,
            "--output", "gen/metric.json"),
           ("gen/metric.json", "gen/metric.sidecar.json"), check_generate),
        Op("traverse", "traverse", ("traverse", "--input", "metric.json"), (), check_traverse),
        Op("tree", "tree",
           ("tree", "--input", "metric.json", "--ranks", "shuffle",
            "--seed", str(derive_seed(seed, "tree-ranks"))), (), check_tree),
        Op("oracle", "oracle", ("traverse", "--input", "oracle.json"), (), check_oracle),
    ]


# --- deletion ------------------------------------------------------------------


def _connected(edges: set[tuple[int, int]], nodes: set[int]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(nodes))
    seen, stack = {start}, [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(nodes)


def deletion_schedule(edges: list[list[int]], seed: int) -> dict:
    """SIM_DELETIONS distinct edges, each deleted alone at a distinct round.

    The graph stays connected after every deletion, so the walk explores
    every node at every seed and its length varies little from seed to seed;
    a deletion that cut the graph would end the walk early, by a seed-dependent
    amount of work.
    """
    rng = random.Random(derive_seed(seed, "schedule"))
    candidates = sorted(map(tuple, edges))
    rng.shuffle(candidates)
    nodes = {v for e in candidates for v in e}
    left, picked = set(candidates), []
    for e in candidates:
        if len(picked) == SIM_DELETIONS:
            break
        if _connected(left - {e}, nodes):
            left.discard(e)
            picked.append(e)
    if len(picked) < SIM_DELETIONS:
        raise ValueError(f"only {len(picked)} edges can go without cutting the graph")
    iters = sorted(rng.sample(range(1, SIM_LAST_ITER + 1), SIM_DELETIONS))
    return {"deletions": [{"iter": it, "edges": [list(e)]} for it, e in zip(iters, picked)]}


def deletion_setup(work: Path, seed: int, run: Runner) -> list[Op]:
    """Walkers and agents under edge deletion: many small BFS passes and big traces."""
    _generate(run, ["generate", "lr-pow2", "--m", str(SIM_M), "--k", str(SIM_K),
                    "--output", "sim.json"], work / "setup.out")
    edges = json.loads((work / "sim.json").read_bytes())["edges"]
    (work / "schedule.json").write_text(json.dumps(deletion_schedule(edges, seed)),
                                        encoding="utf-8")
    (work / "traces").mkdir(exist_ok=True)

    def check_simulate(out: Outcome) -> str | None:
        rep = _json(out)
        if (rep["outcome"], rep["r1_r2"], rep["progress"]) != ("terminated", "ok", "ok"):
            return f"simulate: {rep['outcome']}, r1_r2 {rep['r1_r2']}, progress {rep['progress']}"
        return None

    def check_clique(out: Outcome) -> str | None:
        rep = _json(out)
        want = CLIQUE_N * (CLIQUE_N - 1) // 2
        if rep["outcome"] != "halted" or rep["steps"] != want or rep["bound"] != want:
            return f"clique duel: {rep['outcome']}, steps {rep['steps']}, bound {rep['bound']}"
        return None

    def check_killer(out: Outcome) -> str | None:
        rep = _json(out)
        if (rep["outcome"], rep["visited"], rep["steps"]) != ("halted", KILLER_N, KILLER_STEPS):
            return f"killer duel: {rep['outcome']}, visited {rep['visited']}, steps {rep['steps']}"
        return None

    return [
        Op("simulate", "simulate",
           ("simulate", "--input", "sim.json", "--schedule", "schedule.json",
            "--output", "traces/sim.jsonl"),
           ("traces/sim.jsonl",), check_simulate),
        Op("duel_clique", "duel-clique",
           ("duel", "nn", "clique", "--n", str(CLIQUE_N), "--output", "traces/clique.jsonl"),
           ("traces/clique.jsonl",), check_clique),
        Op("duel_killer", "duel-killer",
           ("duel", "dfs-restart", "killer", "--n", str(KILLER_N),
            "--budget", str(KILLER_BUDGET), "--output", "traces/killer.jsonl"),
           ("traces/killer.jsonl",), check_killer),
    ]


def hop_setup(work: Path, seed: int, run: Runner) -> list[Op]:
    """The ring ops and the deletion ops, all on plain graphs."""
    return ring_setup(work, seed, run) + deletion_setup(work, seed, run)


WORKLOADS: dict[str, Callable[[Path, int, Runner], list[Op]]] = {
    "hop": hop_setup,
    "metric": metric_setup,
}
