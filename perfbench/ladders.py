"""Growth exponents over small size ladders, fitted with ``nntrav.games.growth_fit``.

Each ladder runs one CLI op in-process at increasing sizes, untraced.  The
work exponent (steps of the walk or game) is reported next to the time
exponent, so an extra factor of n per step shows up as the gap between them.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import KILLER_N, derive_seed

MIN_POINT_S = 0.3  # repeat a ladder point until this much time is spent on it


def _ring_input(run, work: Path, m: int) -> tuple[int, list[str]]:
    name = f"ring-{m}.json"
    run(["generate", "lr-pow2", "--m", str(m), "--k", "3", "--output", name], work / "gen.out")
    return json.loads((work / name).read_bytes())["n"], ["traverse", "--input", name]


def _metric_input(run, work: Path, n: int) -> tuple[int, list[str]]:
    name = f"metric-{n}.json"
    run(["generate", "random-metric", "--n", str(n), "--seed", str(derive_seed(0, "ladder")),
         "--output", name], work / "gen.out")
    return n, ["traverse", "--input", name]


def _duel(agent: str, adversary: str, budget=None):
    def make(run, work: Path, n: int) -> tuple[int, list[str]]:
        argv = ["duel", agent, adversary, "--n", str(n), "--output", "duel.jsonl"]
        if budget is not None:
            argv += ["--budget", str(budget(n))]
        return n, argv
    return make


# name -> (points, input maker, steps read from the op's stdout report)
LADDERS = {
    "clique_duel": ((32, 48, 64, 80, 96), _duel("nn", "clique"), lambda rep: rep["steps"]),
    "killer_duel": (tuple(range(24, KILLER_N + 1, 12)),
                    _duel("dfs-restart", "killer", lambda n: 4 * n ** 3),
                    lambda rep: rep["steps"]),
    "ring_traverse": ((6, 7, 8, 9), _ring_input, lambda rep: rep["n"] - 1),
    "metric_traverse": ((50, 100, 150, 200), _metric_input, lambda rep: rep["n"] - 1),
}


def growth_exponents(run, growth_fit, work: Path) -> dict[str, float]:
    """``run(argv, stdout_path) -> exit code`` runs the CLI in-process in ``work``."""
    out: dict[str, float] = {}
    for name, (points, make, steps_of) in LADDERS.items():
        sizes, steps, times = [], [], []
        for point in points:
            size, argv = make(run, work, point)
            stdout = work / "ladder.out"
            samples: list[float] = []
            while not samples or sum(samples) < MIN_POINT_S:
                t0 = perf_counter()
                rc = run(argv, stdout)
                samples.append(perf_counter() - t0)
                if rc != 0:
                    raise RuntimeError(f"ladder {name} failed at size {size} (exit {rc})")
            sizes.append(size)
            steps.append(steps_of(json.loads(stdout.read_bytes())))
            times.append(median(samples))
        out[f"growth.{name}.steps_exp"] = growth_fit(sizes, steps)
        # growth_fit takes integer-like counts; microseconds keep the fit exact
        out[f"growth.{name}.time_exp"] = growth_fit(sizes, [max(1, round(t * 1e6)) for t in times])
    return out
