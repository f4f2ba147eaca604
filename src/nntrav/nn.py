"""Greedy nearest-neighbor traversals, step-cost profiles, and approximation bounds."""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

from .graph import (
    CostFunction,
    GraphError,
    _field_min,
    _packed,
    nearest_of,
)

OPT_ORACLE_LIMIT = 13
STEP_COST_LIMIT = 2**20  # the largest step cost lambda_profile reports


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
            raise GraphError(f"no unvisited node reachable from {pos}")
        return found
    row = c.row(pos)
    best = min(map(row.__getitem__, unvisited))
    return best, sorted(v for v in unvisited if row[v] == best)


def nn_traversal(c: CostFunction, start: int, tie_break: Callable[[list[int]], int] | None = None
                 ) -> tuple[list[int], list[int]]:
    """Greedy traversal: repeatedly move to a nearest unvisited node.

    Returns ``(order, steps)``: ``steps[i]`` is the cost of the step from
    ``order[i]`` to ``order[i + 1]``, the distance the search for it found.
    ``tie_break(tied)`` picks among equally-near candidates, given in
    ascending order; without one the lowest id wins.
    """
    if not 0 <= start < c.n:
        raise GraphError(f"invalid start node {start}")
    order = [start]
    steps: list[int] = []
    unvisited = set(range(c.n))
    unvisited.discard(start)
    pos = start
    while unvisited:
        dist, tied = _nearest_unvisited(c, pos, unvisited)
        pos = tied[0] if len(tied) == 1 or tie_break is None else tie_break(tied)
        order.append(pos)
        steps.append(dist)
        unvisited.discard(pos)
    return order, steps


# --- step-cost profile ------------------------------------------------------


def lambda_profile(steps: Sequence[int]) -> dict[int, int]:
    """``{j: steps of cost >= j}`` for each level j >= 1, ascending, given a
    traversal's step costs (as :func:`nn_traversal` returns them).  Summing
    the counts integrates the step costs, so the sum is the traversal cost.
    A step cost above ``STEP_COST_LIMIT`` (2**20) is refused before anything
    is allocated: the report would hold one key per level."""
    top = max(steps, default=0)
    if top > STEP_COST_LIMIT:
        raise GraphError(
            f"step cost {top} is above the step-cost profile's limit of {STEP_COST_LIMIT}")
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

    Held-Karp on packed rows, built from the smaller subsets up: field x of
    ``reach[mask]`` is the cheapest route over ``mask`` followed by one step
    to x.  The empty route costs 0, so ``reach[{v}]`` is v's own row, and a
    larger ``reach[mask]`` is the field-wise min, over ``last`` in the mask, of
    the cheapest route over the mask ending at ``last`` (field ``last`` of
    ``reach[mask ^ 1 << last]``) plus ``last``'s row.  The backtrack takes the
    lowest-id predecessor attaining each value.

    Each entry ``slots[lo]`` packs four such rows, slot s of n fields holding
    ``reach[lo | top]`` for top = {}, {a}, {b}, {a, b}, where a and b are the
    two highest ids and lo holds only lower ones.  One set of big-int
    operations serves all four slots for each ``last`` in lo; three more steps
    add the routes ending at a or b, each reading only slots already final:
    b from slot 0 into 2, a from 0 and 2 into 1 and 3, b from 1 into 3.  A
    step fills the slots it leaves alone with guard - 1 in every field, which
    is at least any real entry (n * max cost), so the min keeps them.
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
    a, b = n - 2, n - 1
    sw = n * width  # slot width
    spread = 1 | 1 << sw | 1 << 2 * sw | 1 << 3 * sw  # 1 in the low bit of each slot
    guard4, field4, fill = guard * spread, field * spread, guard - ones
    members: list[tuple] = [()]  # members[lo]: (bit, shift, row in every slot) of each node in lo
    for v in range(a):
        members += [m + ((1 << v, shifts[v], rows[v] * spread),) for m in members]
    def step(x: int, src: tuple[int, ...], up: int) -> tuple[int, int, int, int]:
        """The routes ending at x, read from slots ``src`` into the slots ``up`` above."""
        into = sum(1 << (s + up) * sw for s in src)
        return (shifts[x], sum(field << s * sw for s in src), ones << up * sw,
                rows[x] * into + fill * (spread - into))

    steps = [step(b, (0,), 2), step(a, (0, 2), 1), step(b, (1,), 2)]
    slots = []
    for lo, mem in enumerate(members):
        best = None if lo else fill * (spread ^ 1)  # reach[{}] = 0, the rest still open
        for bit, shift, row in mem:
            cand = ((slots[lo ^ bit] >> shift) & field4) * ones + row
            best = cand if best is None else _field_min(best, cand, guard4, width)
        for shift, pick, lift, add in steps:
            best = _field_min(best, ((best >> shift) & pick) * lift + add, guard4, width)
        slots.append(best)
    low = len(members) - 1
    def ending(mask: int, v: int) -> int:
        """Cost of the cheapest route over ``mask`` that ends at v, for v in mask."""
        mask ^= 1 << v
        return (slots[mask & low] >> ((mask >> a) * sw + shifts[v])) & field

    ends = [ending(full, v) for v in range(n)]
    total = min(ends)
    last = ends.index(total)
    order = [last]
    mask, value = full, total
    while mask != 1 << last:
        mask ^= 1 << last
        step_to = last
        last = next(
            p for p in range(n)
            if mask >> p & 1 and ending(mask, p) + mat[p][step_to] == value
        )
        value -= mat[last][step_to]
        order.append(last)
    order.reverse()
    return total, order


# --- bounds -----------------------------------------------------------------


def log_ceiling(a: int, num: int, den: int = 1) -> int:
    """Ceiling of a * (1 + ln(num / den)) in float arithmetic, the form of
    every log-factor budget below and of :func:`tree.nnt_bound_check`'s."""
    if a < 0:
        raise GraphError("a bound's cost must be nonnegative")
    try:
        return math.ceil(a * (1.0 + math.log(num / den)))
    except OverflowError:
        raise GraphError("a cost is too large for the float bound") from None


def nn_upper_bound(n: int, opt_cost: int) -> int:
    """Ceiling of opt_cost * (1 + ln(n-1)): a budget every greedy traversal of a
    metric instance on n nodes must respect."""
    if n < 2:
        raise GraphError(f"bound needs n >= 2, got {n}")
    return log_ceiling(opt_cost, n - 1)


def aspect_ratio_bound(opt_cost: int, lo: int, hi: int) -> int:
    """Ceiling of opt_cost * (1 + ln(hi / lo)), where lo and hi are the min and
    max pair costs (:meth:`CostFunction.pair_cost_extremes`)."""
    if lo <= 0:
        raise GraphError("aspect ratio undefined: some distinct pair has cost 0")
    return log_ceiling(opt_cost, hi, lo)
