"""A fixed job that the benchmark times next to every `ffree` task.

It does the same kinds of work as the `ffree` tasks, without `ffree`: it starts
Python, imports numpy, sorts and bins a large array, intersects Python sets
and fills a dict. The work never changes, so dividing the tasks' times by the
median time of the reference jobs run between them cancels most of the host's
slow and fast phases (see README.md, "Noise"). It prints a digest of its
results, which the benchmark checks repeats on every call.
"""

import numpy as np

rng = np.random.default_rng(12345)
values = rng.random(1_000_000)
order = np.argsort(values)
bins = np.bincount((values * 1000).astype(np.int64), minlength=1000)

n = 300
adj = [set() for _ in range(n)]
for u, v in rng.integers(0, n, size=(20000, 2)).tolist():
    if u != v:
        adj[u].add(v)
        adj[v].add(u)
triangles = sum(len(adj[u] & adj[v]) for u in range(n) for v in adj[u] if v > u)

counts: dict[int, int] = {}
for i in range(200000):
    key = (i * 7919) % 100003
    counts[key] = counts.get(key, 0) + 1

print(int(order[0]), int(bins.sum()), triangles, len(counts))
