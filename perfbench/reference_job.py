"""A fixed pure-Python job that gauges the host's speed; it never changes with nntrav.

run.py starts it as a subprocess after every nntrav op and divides each
op's wall time by the mean of the two reference jobs beside it.  The job
does what the ops do: start an interpreter, build a sparse graph, run BFS
passes with a deque and dicts, then write and parse JSON.  It takes about
0.2-0.3 s on a 2-CPU shared host.  It prints the sum of the BFS distances.
"""

import json
import random
from collections import deque

N, DEGREE, SOURCE_STEP = 2000, 3, 12


def main() -> None:
    rng = random.Random(12345)
    adj: list[list[int]] = [[] for _ in range(N)]
    for v in range(N):
        for _ in range(DEGREE):
            u = rng.randrange(N)
            adj[v].append(u)
            adj[u].append(v)
    total = 0
    for s in range(0, N, SOURCE_STEP):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        total += sum(dist.values())
    rows = [[v, u, (v * u) % 97] for v in range(N) for u in sorted(adj[v])]
    if json.loads(json.dumps({"rows": rows}))["rows"] != rows:
        raise SystemExit("JSON round trip changed the rows")
    print(total)


if __name__ == "__main__":
    main()
