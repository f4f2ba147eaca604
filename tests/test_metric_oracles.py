"""The packed-row metric kernels against the scalar loops they replaced.

Each oracle here is the earlier implementation, kept only to pin the faster
one: the entry-by-entry triangle scan, the scalar Floyd-Warshall closure and
the Held-Karp dynamic program with a parent table.  Cost caps run from 0 to
10**30, so field widths from one bit to over a hundred are exercised.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nntrav.graph import CostFunction, GraphError, check_triangle, random_metric_cost
from nntrav.nn import OPT_ORACLE_LIMIT, opt_traversal

from helpers import random_connected_graph

SEEDS = st.integers(0, 2**32 - 1)
CAPS = st.sampled_from([0, 1, 3, 10, 1000, 10**30])


def triangle_oracle(c: CostFunction):
    """Lexicographically least (u, w, v) with c(u,v) > c(u,w) + c(w,v), scanned entry by entry."""
    mat = c.as_matrix()
    n = c.n
    for u in range(n):
        for w in range(n):
            if w == u:
                continue
            uw = mat[u][w]
            for v in range(n):
                if v == u or v == w:
                    continue
                if mat[u][v] > uw + mat[w][v]:
                    return (u, w, v)
    return None


def closure_oracle(w):
    """Shortest-path closure of a square matrix by scalar Floyd-Warshall."""
    w = [list(row) for row in w]
    n = len(w)
    for k in range(n):
        wk = w[k]
        for i in range(n):
            wik = w[i][k]
            wi = w[i]
            for j in range(n):
                t = wik + wk[j]
                if t < wi[j]:
                    wi[j] = t
    return w


def held_karp_oracle(c: CostFunction):
    """Held-Karp with a parent table; strict improvements scanned in id order."""
    n = c.n
    if n == 1:
        return 0, [0]
    mat = c.as_matrix()
    size = 1 << n
    inf = float("inf")
    dp = [[inf] * n for _ in range(size)]
    parent = [[-1] * n for _ in range(size)]
    for v in range(n):
        dp[1 << v][v] = 0
    for mask in range(size):
        row = dp[mask]
        for last in range(n):
            d = row[last]
            if d == inf:
                continue
            for nxt in range(n):
                if not (mask >> nxt) & 1:
                    m2 = mask | (1 << nxt)
                    nd = d + mat[last][nxt]
                    if nd < dp[m2][nxt]:
                        dp[m2][nxt] = nd
                        parent[m2][nxt] = last
    full = size - 1
    best_last = min(range(n), key=lambda v: (dp[full][v], v))
    order = []
    mask, last = full, best_last
    while last != -1:
        order.append(last)
        prev = parent[mask][last]
        mask ^= 1 << last
        last = prev
    order.reverse()
    return dp[full][best_last], order


def random_symmetric(rng, n, cap):
    """Symmetric matrix with zero diagonal and entries drawn from 0..cap."""
    m = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            m[u][v] = m[v][u] = rng.randint(0, cap)
    return m


def random_costs(rng, n, cap, kind):
    """A raw random matrix, its closure (metric), or the closure with one pair
    raised by 1 or more (metric but for a few triangles through that pair)."""
    m = random_symmetric(rng, n, cap)
    if kind != "raw":
        m = closure_oracle(m)
    if kind == "bumped" and n >= 2:
        u, v = rng.sample(range(n), 2)
        m[u][v] = m[v][u] = m[u][v] + rng.choice([1, 2, cap + 1])
    return CostFunction.from_matrix(m)


class ScriptedRng:
    """Hands out the given values in order, in place of ``randint``."""

    def __init__(self, values):
        self._values = iter(values)

    def randint(self, lo, hi):
        value = next(self._values)
        assert lo <= value <= hi
        return value


class CountingRow(list):
    """A list that counts reads by index, to show when a scan runs entry by entry."""

    reads = 0

    def __getitem__(self, i):
        CountingRow.reads += 1
        return super().__getitem__(i)


@given(st.integers(1, 9), SEEDS, CAPS, st.sampled_from(["raw", "closed", "bumped"]))
@example(1, 0, 0, "raw")
@example(4, 7, 10**30, "bumped")
@settings(max_examples=150, deadline=None)
def test_triangle_check_matches_the_scalar_scan(n, seed, cap, kind):
    c = random_costs(random.Random(seed), n, cap, kind)
    assert check_triangle(c) == triangle_oracle(c)
    if kind == "closed":
        assert check_triangle(c) is None


@given(st.integers(1, 9), SEEDS)
@settings(max_examples=40, deadline=None)
def test_triangle_check_on_hop_metrics(n, seed):
    c = CostFunction.hop_metric(random_connected_graph(random.Random(seed), n))
    assert check_triangle(c) is None is triangle_oracle(c)


@given(st.integers(1, 9), SEEDS, CAPS)
@settings(max_examples=100, deadline=None)
def test_closure_matches_scalar_floyd_warshall(n, seed, cap):
    if cap == 0:
        with pytest.raises(GraphError):
            random_metric_cost(n, random.Random(seed), cap)
        return
    got = random_metric_cost(n, random.Random(seed), cap).as_matrix()
    rng = random.Random(seed)
    drawn = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            drawn[u][v] = drawn[v][u] = rng.randint(1, cap)
    assert got == closure_oracle(drawn)


@given(st.integers(1, 9), SEEDS, CAPS, st.sampled_from(["raw", "closed"]))
@example(5, 0, 0, "raw")  # every route costs 0: all ties
# up to the oracle's size limit, the benchmark's size: small raw costs (many
# ties), a closed metric, and all-zero costs
@example(12, 12, 3, "raw")
@example(OPT_ORACLE_LIMIT, 13, 3, "raw")
@example(12, 12, 1000, "closed")
@example(OPT_ORACLE_LIMIT, 13, 1000, "closed")
@example(12, 12, 0, "raw")
@example(OPT_ORACLE_LIMIT, 13, 0, "raw")
@settings(max_examples=120, deadline=None)
def test_held_karp_matches_the_parent_table(n, seed, cap, kind):
    c = random_costs(random.Random(seed), n, cap, kind)
    assert opt_traversal(c) == held_karp_oracle(c)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 31, 64, 100])
def test_entries_at_a_field_width_boundary(k):
    """Entries 2^k - 1 and 2^k sit on either side of a change in bit length,
    so the packed field is exactly as wide as its largest value needs.  The
    Held-Karp cases run every size up to the limit, so the widest fields
    fill all four slots of each packed entry, n = 2 and 3 included."""
    lo, hi = (1 << k) - 1, 1 << k
    values = [0, 1, lo, hi]
    rng = random.Random(k)
    for n in range(2, OPT_ORACLE_LIMIT + 1):
        m = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                m[u][v] = m[v][u] = rng.choice(values)
        m[0][n - 1] = m[n - 1][0] = hi
        c = CostFunction.from_matrix(m)
        assert opt_traversal(c) == held_karp_oracle(c)
    for _ in range(60):
        n = rng.randint(2, 7)
        m = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                m[u][v] = m[v][u] = rng.choice(values)
        c = CostFunction.from_matrix(m)
        assert check_triangle(c) == triangle_oracle(c)
        assert opt_traversal(c) == held_karp_oracle(c)
        closed = CostFunction.from_matrix(closure_oracle(m))
        assert check_triangle(closed) is None
        assert opt_traversal(closed) == held_karp_oracle(closed)
        drawn = [rng.choice([1, lo, hi]) for _ in range(n * (n - 1) // 2)]
        got = random_metric_cost(n, ScriptedRng(drawn), hi).as_matrix()
        it = iter(drawn)
        raw = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                raw[u][v] = raw[v][u] = next(it)
        assert got == closure_oracle(raw)
    # c(0,2) = 2^(k+1) is just within the sum 2^k + 2^k; one more breaks it
    for top, want in ((2 * hi, None), (2 * hi + 1, (0, 1, 2))):
        c = CostFunction.from_matrix([[0, hi, top], [hi, 0, hi], [top, hi, 0]])
        assert check_triangle(c) == want == triangle_oracle(c)


def test_metric_matrices_are_not_scanned_entry_by_entry():
    """The packed test accepts every pair of a metric matrix, equalities
    included, so the scalar scan reads no entry; on a non-metric matrix it
    scans only the first failing pair's row."""
    rng = random.Random(3)
    for n, cap in ((2, 5), (9, 10), (12, 1000)):
        metric = CostFunction.from_matrix(closure_oracle(random_symmetric(rng, n, cap)))
        metric._matrix = [CountingRow(r) for r in metric._matrix]
        CountingRow.reads = 0
        assert check_triangle(metric) is None
        assert CountingRow.reads == 0
    bad = [[0, 1, 9, 1], [1, 0, 1, 1], [9, 1, 0, 1], [1, 1, 1, 0]]
    c = CostFunction.from_matrix(bad)
    c._matrix = [CountingRow(r) for r in c._matrix]
    CountingRow.reads = 0
    assert check_triangle(c) == (0, 1, 2)
    assert 0 < CountingRow.reads <= 2 * 4
