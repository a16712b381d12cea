"""Known-good per-cloud neighbor loops, silent under every rule.

A loop over clouds is the right shape when each cloud needs its own
cell list; the inline allow names that reason next to the loop.
"""

import numpy as np


def grid_knn_per_cloud(index_cls, queries, candidates, k):
    num_clouds, num_queries, _ = queries.shape
    out = np.empty((num_clouds, num_queries, k), dtype=np.int64)
    # Each cloud bins its own candidates into its own cell list.
    # repro: allow[PERF-104]
    for b in range(num_clouds):
        out[b] = index_cls(candidates[b]).knn(queries[b], k)
    return out


def radius_counts_batched(index, queries, radius):
    return index.count_batch(queries, radius)
