"""Known-bad per-cloud neighbor loops: PERF-104 must fire twice.

``repro.neighbors`` sits outside the Morton hot packages but inside
the exact-kernel packages, so its batch loops are policed too.
"""

import numpy as np


def grid_knn_per_cloud(index_cls, queries, candidates, k):
    num_clouds, num_queries, _ = queries.shape
    out = np.empty((num_clouds, num_queries, k), dtype=np.int64)
    for b in range(num_clouds):
        out[b] = index_cls(candidates[b]).knn(queries[b], k)
    return out


def radius_counts_per_cloud(index_cls, queries, candidates, radius):
    out = np.empty(queries.shape[:2], dtype=np.int64)
    for b in range(queries.shape[0]):
        out[b] = index_cls(candidates[b]).count(queries[b], radius)
    return out
