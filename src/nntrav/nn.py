"""Greedy nearest-neighbor traversals, step-cost profiles, and approximation bounds."""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from typing import Callable, Sequence

from .graph import (
    CostFunction,
    GraphError,
    UnreachableError,
    _field_min,
    _packed,
    nearest_of,
    validate_traversal,
)

OPT_ORACLE_LIMIT = 13


# --- tie-breaking ------------------------------------------------------------


def scripted(preference: Sequence[int]) -> Callable[[list[int]], int]:
    """A tie-break that picks the tied candidate appearing earliest in ``preference``.

    A full intended traversal works directly as the preference order: if that
    traversal is greedy at every step, replaying it through the greedy walk
    reproduces it exactly.
    """
    pos = {v: i for i, v in enumerate(preference)}

    def choose(tied: list[int]) -> int:
        ranked = [v for v in tied if v in pos]
        if not ranked:
            raise GraphError(f"scripted preference names none of the tied nodes {tied}")
        return min(ranked, key=pos.__getitem__)

    return choose


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


def nn_traversal(c: CostFunction, start: int,
                 tie_break: Callable[[list[int]], int] | None = None) -> list[int]:
    """Greedy traversal: repeatedly move to a nearest unvisited node.

    ``tie_break(tied)`` picks among equally-near candidates, given in
    ascending order; without one the lowest id wins.
    """
    if not 0 <= start < c.n:
        raise GraphError(f"invalid start node {start}")
    order = [start]
    unvisited = set(range(c.n))
    unvisited.discard(start)
    pos = start
    while unvisited:
        _, tied = _nearest_unvisited(c, pos, unvisited)
        pos = tied[0] if len(tied) == 1 or tie_break is None else tie_break(tied)
        order.append(pos)
        unvisited.discard(pos)
    return order


# --- step-cost profile ------------------------------------------------------


def lambda_profile(order: Sequence[int], c: CostFunction) -> dict[int, int]:
    """``{j: steps of cost >= j}`` for each level j >= 1, ascending.  Summing
    the counts integrates the step costs, so the sum is the traversal cost."""
    validate_traversal(order, c.n)
    steps = [c.cost(order[i], order[i + 1]) for i in range(len(order) - 1)]
    top = max(steps, default=0)
    if top >= sys.maxsize:  # the histogram below needs top + 1 list slots
        raise GraphError(f"step cost {top} is too large for a step-cost profile")
    hist = [0] * (top + 1)  # hist[s]: steps of cost exactly s
    for s in steps:
        hist[s] += 1
    # suffix sums from the largest cost down: steps of cost >= top, top - 1, ..., 0
    at_least = [*accumulate(reversed(hist))]
    at_least.pop()  # cost >= 0 counts every step and is no level
    return dict(zip(range(1, top + 1), reversed(at_least)))


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
