"""Greedy nearest-neighbor traversals, step-cost profiles, and approximation bounds."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .graph import (
    CostFunction,
    GraphError,
    UnreachableError,
    _field_min,
    _packed,
    bfs_levels,
    nearest_of,
    validate_traversal,
)

OPT_ORACLE_LIMIT = 13


# --- tie-breaking policies --------------------------------------------------


class TieBreak:
    """Chooses one node from a nonempty ascending list of equally-near candidates."""

    def choose(self, tied: list[int]) -> int:
        raise NotImplementedError


class LowestId(TieBreak):
    def choose(self, tied: list[int]) -> int:
        return tied[0]


class SeededRandom(TieBreak):
    """Uniform choice among tied candidates, reproducible from the seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, tied: list[int]) -> int:
        return self._rng.choice(tied)


class Scripted(TieBreak):
    """Break every tie toward the candidate appearing earliest in a preference order.

    A full intended traversal works directly as the preference order: if that
    traversal is greedy at every step, replaying it through the greedy walk
    reproduces it exactly.
    """

    def __init__(self, preference: Sequence[int]):
        self.preference = list(preference)
        self._pos = {v: i for i, v in enumerate(self.preference)}

    def choose(self, tied: list[int]) -> int:
        best = None
        for v in tied:
            i = self._pos.get(v)
            if i is not None and (best is None or i < best[0]):
                best = (i, v)
        if best is None:
            raise GraphError(f"scripted preference names none of the tied nodes {tied}")
        return best[1]


# --- greedy traversal -------------------------------------------------------


def _nearest_unvisited(c: CostFunction, pos: int, unvisited: set[int]) -> tuple[int, list[int]]:
    """(distance, sorted tied nodes) for the cheapest unvisited node from ``pos``."""
    if c.kind == "hop":
        # search only the ball around pos: a full row would cost one whole BFS per step
        found = nearest_of(c.graph, pos, unvisited)
        if found is None:
            raise UnreachableError(f"no unvisited node reachable from {pos}")
        return found
    best = None
    tied: list[int] = []
    row = c.row(pos)
    for v in sorted(unvisited):
        w = row[v]
        if best is None or w < best:
            best = w
            tied = [v]
        elif w == best:
            tied.append(v)
    return best, tied


def nn_traversal(c: CostFunction, start: int, tie_break: TieBreak | None = None) -> list[int]:
    """Greedy traversal: repeatedly move to a nearest unvisited node."""
    if not 0 <= start < c.n:
        raise GraphError(f"invalid start node {start}")
    tb = tie_break if tie_break is not None else LowestId()
    order = [start]
    unvisited = set(range(c.n))
    unvisited.discard(start)
    pos = start
    while unvisited:
        _, tied = _nearest_unvisited(c, pos, unvisited)
        pos = tied[0] if len(tied) == 1 else tb.choose(tied)
        order.append(pos)
        unvisited.discard(pos)
    return order


def validate_nn_traversal(c: CostFunction, order: Sequence[int]) -> int | None:
    """None when every step goes to a nearest unvisited node; else the first bad index.

    The returned index is the position in ``order`` of the first node that was
    not a valid greedy choice.  Tie-breaking is irrelevant: any nearest node is
    accepted.
    """
    validate_traversal(order, c.n)
    if c.n == 1:
        return None
    unvisited = set(range(c.n))
    unvisited.discard(order[0])
    for i in range(1, c.n):
        prev, cur = order[i - 1], order[i]
        if c.kind == "matrix":
            row = c.row(prev)
            step = row[cur]
            if any(row[v] < step for v in unvisited):
                return i
        else:
            # hop metric: expand BFS levels from the previous node until the
            # chosen node appears; an unvisited node in an earlier level wins.
            for level in bfs_levels(c.graph, (prev,)):
                if cur in level:
                    break
                if not unvisited.isdisjoint(level):
                    return i
            else:
                raise UnreachableError(f"step {i}: node {cur} unreachable from {prev}")
        unvisited.discard(cur)
    return None


# --- step-cost profile and route partitioning -------------------------------


@dataclass
class LambdaProfile:
    """Sparse counts: ``counts[j]`` = number of steps of cost >= j, for j >= 1."""

    counts: dict[int, int] = field(default_factory=dict)

    def at(self, j: int) -> int:
        if j < 1:
            raise GraphError(f"profile is indexed from 1, got {j}")
        return self.counts.get(j, 0)

    def total(self) -> int:
        """Equals the traversal cost: summing level counts integrates step costs."""
        return sum(self.counts.values())

    def max_level(self) -> int:
        return max(self.counts, default=0)

    def as_json_obj(self) -> dict[str, int]:
        return {str(j): self.counts[j] for j in sorted(self.counts)}


def lambda_profile(order: Sequence[int], c: CostFunction) -> LambdaProfile:
    validate_traversal(order, c.n)
    steps = [c.cost(order[i], order[i + 1]) for i in range(len(order) - 1)]
    counts: dict[int, int] = {}
    for s in steps:
        for j in range(1, s + 1):
            counts[j] = counts.get(j, 0) + 1
    return LambdaProfile(counts)


@dataclass
class RoutePartition:
    """Consecutive blocks of a route; block boundaries are start indices plus n."""

    parts: list[list[int]]
    cuts: list[int]


def partition_route(order: Sequence[int], j: int, c: CostFunction) -> RoutePartition:
    """Split a route into consecutive blocks accumulating < j cost inside each.

    Walking from a block's first node, costs accumulate until a step pushes the
    running total to >= j; the block ends just before that step completes, so
    every within-block prefix sums to < j.  Under the triangle inequality any
    two nodes of one block then lie at cost < j from each other, and the block
    count k satisfies (k-1)*j <= total route cost.
    """
    validate_traversal(order, c.n)
    if j < 1:
        raise GraphError(f"threshold must be >= 1, got {j}")
    if not c.is_metric():
        raise GraphError("route partitioning needs the triangle inequality")
    n = len(order)
    cuts = [0]
    acc = 0
    for t in range(n - 1):
        acc += c.cost(order[t], order[t + 1])
        if acc >= j:
            cuts.append(t + 1)
            acc = 0
    cuts.append(n)
    parts = [list(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    return RoutePartition(parts, cuts)


# --- exact optimum (small instances) ----------------------------------------


def opt_traversal(c: CostFunction) -> tuple[int, list[int]]:
    """Exact minimum-cost traversal over all start nodes, for n <= 13.

    Held-Karp over (visited-subset, last-node) states on packed rows:
    ``dp[mask]`` holds one field per last node.  For each mask, the field-wise
    min over ``last`` in the mask of ``dp[mask][last] + row[last]`` gives, in
    field x, the cheapest route over the mask that ends by stepping to x.  The
    backtrack takes the lowest-id predecessor attaining each value.
    """
    n = c.n
    if n > OPT_ORACLE_LIMIT:
        raise GraphError(f"exact oracle is limited to n <= {OPT_ORACLE_LIMIT}, got {n}")
    if n == 1:
        return 0, [0]
    mat = c.as_matrix()
    # a field holds at most n - 1 steps of at most the max entry each
    width, ones, guard, rows = _packed(mat, n * max(map(max, mat)))
    field = (1 << width) - 1
    shifts = [v * width for v in range(n)]
    full = (1 << n) - 1
    dp = [0] * (full + 1)  # dp[1 << v] is read only in field v: v alone costs 0
    for mask in range(1, full):
        row = dp[mask]
        best = None
        for last in range(n):
            if mask >> last & 1:
                cand = ((row >> shifts[last]) & field) * ones + rows[last]
                best = cand if best is None else _field_min(best, cand, guard, width)
        for nxt in range(n):
            if not mask >> nxt & 1:
                dp[mask | 1 << nxt] |= best & (field << shifts[nxt])
    ends = [(dp[full] >> s) & field for s in shifts]
    total = min(ends)
    last = ends.index(total)
    order = [last]
    mask, value = full, total
    while mask != 1 << last:
        mask ^= 1 << last
        row, step_to = dp[mask], last
        last = next(
            p for p in range(n)
            if mask >> p & 1 and ((row >> shifts[p]) & field) + mat[p][step_to] == value
        )
        value -= mat[last][step_to]
        order.append(last)
    order.reverse()
    return total, order


# --- bounds -----------------------------------------------------------------


def nn_upper_bound(n: int, opt_cost: int) -> int:
    """Ceiling of opt_cost * (1 + ln(n-1)): a budget every greedy traversal of a
    metric instance on n nodes must respect."""
    if n < 2:
        raise GraphError(f"bound needs n >= 2, got {n}")
    if opt_cost < 0:
        raise GraphError("optimal cost must be nonnegative")
    return math.ceil(opt_cost * (1.0 + math.log(n - 1)))


def aspect_ratio_bound(opt_cost: int, lo: int, hi: int) -> int:
    """Ceiling of opt_cost * (1 + ln(hi / lo)), where lo and hi are the min and
    max pair costs (:meth:`CostFunction.pair_cost_extremes`)."""
    if lo <= 0:
        raise GraphError("aspect ratio undefined: some distinct pair has cost 0")
    if opt_cost < 0:
        raise GraphError("optimal cost must be nonnegative")
    return math.ceil(opt_cost * (1.0 + math.log(hi / lo)))
