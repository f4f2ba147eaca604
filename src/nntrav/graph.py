"""Undirected graphs on dense integer ids, hop metrics, and explicit cost matrices.

Node ids are always 0..n-1.  Edges are unordered pairs; after construction the
only mutation a graph supports is edge deletion, which keeps failure runs
replayable against their original input.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid node, edge, traversal, or serialized input."""


class UnreachableError(GraphError):
    """A required pairwise distance does not exist in the current graph."""


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def _bulk_rows(rows: list, row_types: set[type], width: int, n: int) -> bool:
    """True when ``rows`` is nonempty and every row is one of ``row_types``,
    holds ``width`` nonnegative ints (bools excluded) and starts with two node
    ids below ``n``.

    Each test is one C-level pass over the rows or over one flat copy of
    their entries, as ``bfs_levels`` tests its sources; on False the caller
    scans entry by entry, which names the first bad row.
    """
    if not (rows and row_types.issuperset(map(type, rows)) and {width}.issuperset(map(len, rows))):
        return False
    flat = [*chain.from_iterable(rows)]
    return ({int}.issuperset(map(type, flat)) and min(flat) >= 0
            and max(flat[0::width]) < n and max(flat[1::width]) < n)


class Graph:
    """Simple undirected graph supporting edge deletion but never insertion."""

    __slots__ = ("n", "_adj", "_masks")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise GraphError(f"node count must be a positive int, got {n!r}")
        self.n = n
        self._masks: list[int] | None = None
        pairs = [*edges]
        adj: list[set[int]] = [set() for _ in range(n)]
        if _bulk_rows(pairs, {list, tuple}, 2, n):
            for u, v in pairs:
                adj[u].add(v)
                adj[v].add(u)
            if sum(map(len, adj)) == 2 * len(pairs):  # no self-loop, no duplicate
                self._adj = adj
                return
            adj = [set() for _ in range(n)]
        # entry by entry, to name the first bad one
        self._adj = adj
        for pair in pairs:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphError(f"edge entries must be pairs, got {pair!r}") from None
            self._check_node(u)
            self._check_node(v)
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if v in self._adj[u]:
                raise GraphError(f"duplicate edge {normalize_edge(u, v)}")
            self._adj[u].add(v)
            self._adj[v].add(u)

    def _check_node(self, v: int) -> None:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.n:
            raise GraphError(f"invalid node id {v!r} for a graph on {self.n} nodes")

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    @property
    def adjacency(self) -> list[set[int]]:
        """Every neighbor set, indexed by node id.  Read-only.

        Index it only with ids already known valid: it checks none.
        Deletions show through the same sets.
        """
        return self._adj

    @property
    def masks(self) -> list[int]:
        """Every neighbor set as an int bitset (bit w set for each neighbor w),
        indexed by node id.  Read-only; built on first use and kept in step
        with deletions, so graphs that never ask for it never pay for it."""
        if self._masks is None:
            # a node adjacent to most others is cheaper to build from its non-neighbors
            n = self.n
            full, every = (1 << n) - 1, set(range(n))
            self._masks = [sum(1 << w for w in nbrs) if 2 * len(nbrs) <= n
                           else full ^ sum(1 << w for w in every - nbrs) for nbrs in self._adj]
        return self._masks

    def edges(self) -> list[Edge]:
        adj = self._adj
        return [(u, v) for u in range(self.n) for v in sorted(adj[u]) if v > u]

    def delete_edge(self, u: int, v: int) -> None:
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} cannot be deleted")
        if v not in self._adj[u]:
            raise GraphError(f"edge {normalize_edge(u, v)} is not in the graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        if self._masks is not None:
            self._masks[u] ^= 1 << v
            self._masks[v] ^= 1 << u

    def delete_edges(self, edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
        """Delete ``edges`` in order, as :meth:`delete_edge` does; returns them normalized."""
        cuts = tuple(normalize_edge(u, v) for u, v in edges)
        for u, v in cuts:
            self.delete_edge(u, v)
        return cuts

    def copy(self) -> Graph:
        g = Graph(self.n)
        g._adj = [set(s) for s in self._adj]
        g._masks = None if self._masks is None else self._masks[:]
        return g

    def component(self, v: int) -> set[int]:
        seen: set[int] = set()
        for level in bfs_levels(self, (v,)):
            seen.update(level)
        return seen

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def complete_graph(n: int) -> Graph:
    graph = Graph(n)
    every = set(range(n))
    graph._adj = [every - {v} for v in range(n)]
    return graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def bfs_levels(graph: Graph, sources: Iterable[int]) -> Iterator[list[int]]:
    """Level-synchronous BFS: yields the nodes at hop distance 0, 1, 2, ... from
    the nearest source, one list per level; level 0 is the distinct sources.

    The sources are validated once, several of them in one bulk test; the
    adjacency was validated when the graph was built, so the inner loop reads
    it directly.
    Each level is computed only when asked for, so a consumer that stops
    early pays only for the ball it looked at.
    """
    frontier = [*sources]
    if len(frontier) == 1:  # most calls: one direct check beats the bulk test
        graph._check_node(frontier[0])
    elif frontier and not (
        {int}.issuperset(map(type, frontier)) and 0 <= min(frontier) and max(frontier) < graph.n
    ):
        for s in frontier:
            graph._check_node(s)  # names the first bad id; int subclasses pass
    # de-duplicate only after the type check: 1.0 == 1 would hide a float
    seen = set(frontier)
    if len(seen) < len(frontier):
        frontier = [*dict.fromkeys(frontier)]
    adj = graph._adj
    while frontier:
        yield frontier
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt


def neighbors_of(masks: list[int], nodes: int) -> int:
    """The union of the neighbor bitsets of the nodes in bitset ``nodes``."""
    if not nodes & (nodes - 1):  # one node or none: most walk-back levels
        return masks[nodes.bit_length() - 1] if nodes else 0
    out = 0
    while nodes:
        low = nodes & -nodes
        out |= masks[low.bit_length() - 1]
        nodes ^= low
    return out


def bit_levels(graph: Graph, source: int) -> Iterator[int]:
    """:func:`bfs_levels` from one source on the neighbor bitsets: yields each
    level as a bitset, with one OR per frontier node.  ``source`` is not checked."""
    masks = graph.masks
    seen = level = 1 << source
    while level:
        yield level
        level = neighbors_of(masks, level) & ~seen
        seen |= level


def _hop_diameter(graph: Graph) -> int:
    """Largest hop distance between two nodes of a connected graph.

    True twins (nodes with the same closed neighbourhood) first merge into
    one node: two nodes in different classes are as far apart as their
    classes, and two distinct twins are at distance 1 (the twin step of
    Coudert, Ducoffe & Popa, SODA 2018).  A quotient whose classes all have
    two neighbours is a union of cycles, so one walk from class 0 settles
    it: a single cycle of N classes has diameter N // 2, and a walk that
    comes back short means the graph is disconnected.  Any other quotient
    gets one bit-parallel BFS from all sources at once (the packing of
    Akiba, Iwata & Yoshida, SIGMOD 2013): ``reach[v]`` is the bitset of
    sources within the current radius of ``v``, and each round ORs in the
    neighbors' sets.  The round in which every set fills up is the
    diameter; a round that changes nothing before then means the graph is
    disconnected.
    """
    ids: dict[frozenset[int], int] = {}
    cls = [ids.setdefault(frozenset(nbrs).union((v,)), len(ids))
           for v, nbrs in enumerate(graph.adjacency)]
    n = len(ids)
    if n == 1:  # a complete graph
        return min(graph.n - 1, 1)
    adj = [{cls[u] for u in closed} - {c} for c, closed in enumerate(ids)]
    if {2}.issuperset(map(len, adj)):  # a union of cycles: walk the one through class 0
        prev, cur, length = 0, next(iter(adj[0])), 1
        while cur:
            a, b = adj[cur]
            prev, cur, length = cur, b if a == prev else a, length + 1
        if length < n:
            raise UnreachableError("graph is disconnected; hop metric is partial")
        return n // 2
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    radius = 0
    while reach.count(full) < n:
        grown = []
        for r, nbrs in zip(reach, adj):
            if r != full:
                for u in nbrs:
                    r |= reach[u]
            grown.append(r)
        if grown == reach:
            raise UnreachableError("graph is disconnected; hop metric is partial")
        reach = grown
        radius += 1
    return radius


def bfs_distances(graph: Graph, *sources: int) -> list[int]:
    """Hop distance from the nearest of ``sources``; unreachable nodes get the sentinel n+1."""
    dist = [graph.n + 1] * graph.n
    for d, level in enumerate(bfs_levels(graph, sources)):
        for v in level:
            dist[v] = d
    return dist


def hop_distance(graph: Graph, u: int, v: int) -> int | None:
    """Hop distance between two nodes, or None when unreachable.

    Stops at the target's level, so the cost is the BFS ball around ``u``
    rather than a full sweep.
    """
    graph._check_node(v)
    for d, level in enumerate(bfs_levels(graph, (u,))):
        if v in level:
            return d
    return None


def nearest_of(graph: Graph, source: int, targets: set[int]) -> tuple[int, list[int]] | None:
    """Distance to the nearest node of ``targets`` plus every target at that distance.

    ``source`` itself is ignored even if present in ``targets``.  Returns None
    when no target is reachable.  The tied list is sorted ascending.
    """
    levels = enumerate(bfs_levels(graph, (source,)))
    next(levels)  # level 0 is the source itself
    for d, level in levels:
        hits = [w for w in level if w in targets]
        if hits:
            return d, sorted(hits)
    return None


class CostFunction:
    """Symmetric nonnegative integer costs on node pairs.

    Two kinds: the hop metric of a graph, or an explicit complete matrix.
    Zero costs between distinct nodes are legal for matrices.  :meth:`row`
    and :meth:`cost` read either kind the same way.
    """

    __slots__ = ("kind", "n", "graph", "_matrix")

    def __init__(self, kind: str, n: int, graph: Graph | None, matrix: list[list[int]] | None):
        self.kind = kind
        self.n = n
        self.graph = graph
        self._matrix = matrix

    @classmethod
    def hop_metric(cls, graph: Graph) -> CostFunction:
        if not isinstance(graph, Graph):
            raise GraphError(f"hop metric needs a Graph, got {type(graph).__name__}")
        return cls("hop", graph.n, graph, None)

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]]) -> CostFunction:
        n = len(matrix)
        if n < 1:
            raise GraphError("cost matrix must be non-empty")
        rows = []
        for u in range(n):
            row = list(matrix[u])
            if len(row) != n:
                raise GraphError(f"cost matrix row {u} has length {len(row)}, expected {n}")
            rows.append(row)
        for u in range(n):
            if rows[u][u] != 0:
                raise GraphError(f"cost matrix diagonal entry ({u},{u}) must be 0")
            for v in range(u + 1, n):
                w = rows[u][v]
                if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                    raise GraphError(f"cost ({u},{v}) must be a nonnegative int, got {w!r}")
                if rows[v][u] != w:
                    raise GraphError(f"cost matrix is asymmetric at ({u},{v})")
        return cls("matrix", n, None, rows)

    def cost(self, u: int, v: int) -> int:
        if self.kind == "matrix":
            if not 0 <= u < self.n or not 0 <= v < self.n:
                raise GraphError(f"invalid node pair ({u},{v})")
            return self._matrix[u][v]
        d = hop_distance(self.graph, u, v)
        if d is None:
            raise UnreachableError(f"nodes {u} and {v} are disconnected under the hop metric")
        return d

    def row(self, u: int) -> list[int]:
        """Costs from ``u`` to every node, indexed by node id.  Treat it as read-only."""
        if self.kind == "hop":
            row = bfs_distances(self.graph, u)
            if self.n + 1 in row:
                raise UnreachableError("graph is disconnected; hop metric is partial")
            return row
        if not 0 <= u < self.n:
            raise GraphError(f"invalid node {u!r} for {self.n} nodes")
        return self._matrix[u]

    def as_matrix(self) -> list[list[int]]:
        """Every :meth:`row` by node id, the same objects: treat them as read-only."""
        return [*map(self.row, range(self.n))]

    def triangle_violation(self) -> tuple[int, int, int] | None:
        """:func:`check_triangle`'s answer; a hop metric never violates it."""
        return None if self.kind == "hop" else check_triangle(self)

    def pair_cost_extremes(self) -> tuple[int, int]:
        """(min, max) cost over distinct pairs."""
        if self.n < 2:
            raise GraphError("no distinct pairs on a single node")
        if self.kind == "hop":
            return 1, _hop_diameter(self.graph)
        tails = (self.row(u)[u + 1:] for u in range(self.n - 1))
        extremes = [(min(t), max(t)) for t in tails]
        return min(lo for lo, _ in extremes), max(hi for _, hi in extremes)


def _packed(rows: Sequence[Sequence[int]], top: int) -> tuple[int, int, int, list[int]]:
    """Each row as one int with a fixed-width field per entry (SWAR).

    Returns ``(width, ones, guard, packed)``: field ``v`` of ``packed[u]`` is
    ``rows[u][v]``; ``ones`` holds 1 in every field and ``guard`` the top bit
    of every field.  Any field value up to ``top`` stays below the guard bit,
    so one big-int add, subtract and AND compares whole rows at once:
    ``((a | guard) - b) & guard`` keeps the guard bit of each field where
    a >= b, as long as no field of ``a`` or ``b`` exceeds ``top``.
    """
    width = top.bit_length() + 1
    ones = 0
    for _ in rows:
        ones = (ones << width) | 1
    packed = []
    for row in rows:
        p = 0
        for x in reversed(row):
            p = (p << width) | x
        packed.append(p)
    return width, ones, ones << (width - 1), packed


def _field_min(a: int, b: int, guard: int, width: int) -> int:
    """Field-wise min of two packed ints whose fields are below the guard bit."""
    ge = ((a | guard) - b) & guard  # guard bit set where a >= b
    take_b = (ge << 1) - (ge >> (width - 1))  # whole field set where a >= b
    return a ^ ((a ^ b) & take_b)


def check_triangle(c: CostFunction) -> tuple[int, int, int] | None:
    """None when the triangle inequality holds everywhere, else the
    lexicographically least ordered triple (u, w, v) with c(u,v) > c(u,w) + c(w,v).

    For each ordered pair (u, w) one packed test checks c(u,v) <= c(u,w) +
    c(w,v) for every v at once; only a pair that fails it is scanned entry by
    entry, and all earlier pairs passed, so the first v found is the least triple.
    """
    n = c.n
    rows = [c.row(u) for u in range(n)]
    _, ones, guard, packed = _packed(rows, 2 * max(map(max, rows)))
    for u, row_u in enumerate(rows):
        lack_u = guard - packed[u]  # field v: guard - c(u,v), still positive
        for w, uw in enumerate(row_u):
            if (packed[w] + lack_u + uw * ones) & guard == guard:
                continue
            row_w = rows[w]
            for v in range(n):
                if v == u or v == w:
                    continue
                if row_u[v] > uw + row_w[v]:
                    return (u, w, v)
    return None


def validate_traversal(order: Sequence[int], n: int) -> None:
    if len(order) != n or sorted(order) != list(range(n)):
        raise GraphError(f"not a permutation of 0..{n - 1}: {list(order)!r}")


def cost_of(order: Sequence[int], c: CostFunction) -> int:
    """Total cost of consecutive steps of a traversal (a permutation of all nodes)."""
    validate_traversal(order, c.n)
    return sum(c.cost(order[i], order[i + 1]) for i in range(len(order) - 1))


def random_metric_cost(n: int, rng, max_cost: int = 9) -> CostFunction:
    """Random symmetric integer costs pushed through their shortest-path closure,
    which enforces the triangle inequality while keeping every pair cost >= 1."""
    if n < 1:
        raise GraphError("need at least one node")
    if max_cost < 1:
        raise GraphError("max_cost must be >= 1")
    w = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            w[u][v] = w[v][u] = rng.randint(1, max_cost)
    # Floyd-Warshall on packed rows: row i becomes the field-wise min of itself
    # and c(i,k) + row k; two drawn costs sum to at most 2 * max_cost
    width, ones, guard, rows = _packed(w, 2 * max_cost)
    field = (1 << width) - 1
    for k, row_k in enumerate(rows):
        shift = k * width
        for i, row_i in enumerate(rows):
            rows[i] = _field_min(row_i, ((row_i >> shift) & field) * ones + row_k, guard, width)
    closed = [[(p >> (v * width)) & field for v in range(n)] for p in rows]
    return CostFunction("matrix", n, None, closed)


# --- serialization ---------------------------------------------------------


def instance_to_json_obj(graph: Graph, cost: CostFunction | None = None) -> dict:
    obj: dict = {"n": graph.n, "edges": graph.edges()}
    if cost is not None and cost.kind == "matrix":
        obj["weights"] = [[u, v, row[v]] for u, row in enumerate(map(cost.row, range(cost.n)))
                          for v in range(u + 1, cost.n)]
    return obj


def instance_from_json_obj(obj: dict) -> tuple[Graph, CostFunction | None]:
    """Parse ``{"n":…, "edges":[[u,v],…]}`` with an optional complete ``"weights"`` list."""
    if not isinstance(obj, dict):
        raise GraphError("graph JSON must be an object")
    try:
        n = obj["n"]
        edges = obj["edges"]
    except KeyError as err:
        raise GraphError(f"graph JSON is missing key {err.args[0]!r}") from None
    if not isinstance(edges, list):
        raise GraphError(f"edges must be a list, got {edges!r}")
    graph = Graph(n, edges)
    weights = obj.get("weights")
    if weights is None:
        return graph, None
    if not isinstance(weights, list):
        raise GraphError(f"weights must be a list, got {weights!r}")
    want = n * (n - 1) // 2
    if len(weights) == want and _bulk_rows(weights, {list}, 3, n):
        mat = [[-1] * n for _ in range(n)]  # -1: pair not given yet
        for u in range(n):
            mat[u][u] = 0
        for u, v, w in weights:
            mat[u][v] = mat[v][u] = w
        # want entries filled every pair, so none was a self-pair or a duplicate
        if min(map(min, mat)) >= 0:
            return graph, CostFunction("matrix", n, None, mat)
    # entry by entry, to name the first bad one
    mat = [[0] * n for _ in range(n)]
    seen: set[Edge] = set()
    for item in weights:
        if not isinstance(item, list) or len(item) != 3:
            raise GraphError(f"weight entry must be [u, v, w], got {item!r}")
        u, v, w = item
        graph._check_node(u)
        graph._check_node(v)
        if u == v:
            raise GraphError(f"weight entry for self-pair ({u},{v})")
        e = normalize_edge(u, v)
        if e in seen:
            raise GraphError(f"duplicate weight entry for pair {e}")
        seen.add(e)
        mat[u][v] = mat[v][u] = w
    if len(seen) != want:
        raise GraphError(f"explicit matrix must cover all {want} pairs, got {len(seen)}")
    return graph, CostFunction.from_matrix(mat)


def graph_to_dot(graph: Graph) -> str:
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(graph.n))
    lines.extend(f"  {u} -- {v};" for u, v in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
