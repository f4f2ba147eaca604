"""In-process span tracer for the traced benchmark run.

Wraps a fixed set of nntrav functions and methods, one set per module
(layer).  Each wrapped call records a span ``(name, start, end, parent)`` in
a list kept in memory; nothing is written until the run ends.  Per-node hot
calls such as ``Graph.adjacent`` or ``normalize_edge`` are deliberately not
wrapped: they run hundreds of thousands of times per op and would swamp the
timings they are meant to explain.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# layer (module) -> traced public functions and Class.method names
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "graph": (
        "bfs_distances", "hop_distance", "nearest_of", "check_triangle", "cost_of",
        "random_metric_cost", "complete_graph", "instance_to_json_obj",
        "instance_from_json_obj", "CostFunction.pair_cost_extremes",
        "CostFunction.as_matrix", "CostFunction.from_matrix",
    ),
    "nn": ("nn_traversal", "lambda_profile", "opt_traversal", "aspect_ratio_bound"),
    "layered_ring": ("build_lr", "build_dfs_killer", "canonical_nn_route", "hamiltonian_route"),
    "simulator": (
        "run_sim", "sim_step", "check_r1_r2", "check_progress", "SimTrace.to_json_lines",
    ),
    "games": (
        "play_game", "NnAgent.decide", "DfsRestartAgent.decide", "KillerAdversary.react",
        "CliqueAdversary.react", "GameTrace.to_json_lines", "clique_stage_lengths",
    ),
    "tree": ("nn_tree", "mst_cost", "nnt_bound_check"),
}

TRACED_NAMES: tuple[str, ...] = tuple(
    f"{layer}.{attr}" for layer, attrs in LAYERS.items() for attr in attrs)


class Tracer:
    """Collects spans while installed; :meth:`uninstall` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` recorded for each call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1)

        return traced

    def install(self) -> None:
        """Wrap every name in LAYERS, including ``from .x import f`` copies."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "nntrav" or key.startswith("nntrav.")]
        for layer, attrs in LAYERS.items():
            mod = sys.modules[f"nntrav.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(name, raw.__func__))
                    else:
                        wrapped = self.wrap(name, raw)
                    self._set(cls, meth, wrapped)
                    continue
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapper)

    def _set(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, getattr(owner, "__dict__")[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def take(self) -> list[tuple[str, float, float, int]]:
        """Hand over the spans recorded so far and start an empty list."""
        spans = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return spans


def write_spans(path, passes) -> None:
    """One JSON line per span: pass, id, name, start, end, parent id (-1 for a
    root) and root id, which all spans of one op invocation share."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, spans in enumerate(passes):
            roots: list[int] = []
            for i, (name, t0, t1, parent) in enumerate(spans):
                roots.append(i if parent < 0 else roots[parent])  # parents come first
                fh.write(json.dumps({"pass": p, "id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "root": roots[i]}) + "\n")


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name total self time and call count.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children are merged, and a child
    sticking out of its parent is clipped to it).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, t0, t1, parent in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, t0, t1, _parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, t0), min(c1, t1)
            if c1 <= c0:
                continue
            if cur_hi is None or c0 > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c0, c1
            else:
                cur_hi = max(cur_hi, c1)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        self_s[name] += (t1 - t0) - covered
        calls[name] += 1
    return dict(self_s), dict(calls)
