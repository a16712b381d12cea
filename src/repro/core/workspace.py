"""Reusable scratch buffers for the batched kernel engine.

Steady-state serving runs the same kernel shapes frame after frame, so
re-allocating the multi-megabyte distance blocks of the exact kernels
(and the candidate buffers of the Morton window search) on every batch
is pure overhead.  A :class:`Workspace` is a grow-only pool of named
scratch arrays: the first request for a name allocates, subsequent
requests of the same or smaller size reuse the existing allocation and
return a reshaped view.  The pool also carries the **scratch budget**
that bounds how much transient memory the chunked exact kernels
(:mod:`repro.neighbors.batched`) may materialize at once, instead of
building full ``(N, N)`` distance matrices.

A workspace is *not* thread-safe — and deliberately not locked: the
views :meth:`Workspace.buffer` hands out alias the pool, so a lock
around ``buffer()`` could not stop two threads from scribbling on the
same scratch array anyway.  Whoever shares a model across threads
serializes its forwards instead; the serving stack does so under
``InferenceServer._dispatch_lock``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


#: Default transient-memory budget for chunked kernels.  Deliberately
#: small: besides bounding worst-case scratch far below an ``(N, N)``
#: materialization at LiDAR scale, it sizes the tiled distance blocks
#: to stay cache-resident — on the paper-scale suite a 4 MiB tile beats
#: a 64 MiB one by ~25% wall-clock because the argpartition pass reads
#: the block back while it is still hot.
DEFAULT_SCRATCH_BYTES = 4 << 20


class Workspace:
    """A named, grow-only scratch-buffer pool with a chunking budget.

    Args:
        scratch_bytes: transient-memory budget consumed by the chunked
            exact kernels when sizing their tiled distance blocks.

    Attributes:
        hits: requests served from an existing allocation.
        misses: requests that had to (re)allocate.
    """

    def __init__(self, scratch_bytes: int = DEFAULT_SCRATCH_BYTES) -> None:
        if scratch_bytes < 1:
            raise ValueError("scratch_bytes must be positive")
        self.scratch_bytes = int(scratch_bytes)
        self.hits = 0
        self.misses = 0
        self._pool: Dict[str, np.ndarray] = {}

    def buffer(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype: np.dtype = np.float64,
    ) -> np.ndarray:
        """An uninitialized scratch array of ``shape``/``dtype``.

        Returns a C-contiguous view into the pooled flat buffer
        registered under ``name`` (contents are garbage — callers must
        fully overwrite it).  The pool only grows: asking for a
        smaller size later reuses the same allocation.
        """
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        existing = self._pool.get(name)
        if (
            existing is None
            or existing.dtype != np.dtype(dtype)
            or existing.size < size
        ):
            existing = np.empty(size, dtype=dtype)
            self._pool[name] = existing
            self.misses += 1
        else:
            self.hits += 1
        return existing[:size].reshape(shape)

    def chunk_rows(self, row_bytes: int, total_rows: int) -> int:
        """Rows of a tiled block that fit the scratch budget.

        Always at least 1 (a single row may exceed the budget; the
        kernels cannot tile below one row), at most ``total_rows``.
        """
        if row_bytes < 1:
            raise ValueError("row_bytes must be positive")
        if total_rows < 1:
            raise ValueError("total_rows must be positive")
        return max(1, min(total_rows, self.scratch_bytes // row_bytes))

    @property
    def bytes_allocated(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(buf.nbytes for buf in self._pool.values())

    @property
    def num_buffers(self) -> int:
        return len(self._pool)

    def __repr__(self) -> str:
        return (
            f"Workspace(buffers={self.num_buffers}, "
            f"bytes={self.bytes_allocated}, hits={self.hits}, "
            f"misses={self.misses})"
        )
