"""Farthest point sampling (FPS) — the SOTA baseline sampler.

FPS (paper Fig. 7 / Sec. 5.1.1) iteratively grows a sampled set by
always adding the point farthest from everything sampled so far.  It
yields excellent coverage but costs ``O(nN)`` with a serial dependency
between iterations (each pick needs the distance array updated by the
previous pick), which is exactly the bottleneck EdgePC attacks.

``farthest_point_sample`` maintains the running distance-to-sampled-set
array ``D`` and updates it with one vectorized pass per iteration, the
same dataflow as the paper's reference CUDA kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

try:  # pragma: no cover - exercised implicitly on import
    # Direct einsum kernel: identical arithmetic to ``np.einsum`` (the
    # wrapper adds only dispatch), but ~2us cheaper per call — which
    # matters in the per-pick loop of the pruned sampler.
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy < 2.0 layout
    try:
        from numpy.core._multiarray_umath import (  # type: ignore
            c_einsum as _einsum,
        )
    except ImportError:
        _einsum = np.einsum  # type: ignore[assignment]

#: Relative inflation applied to the prune threshold (the squared
#: center distance below which a block must be updated), so float
#: rounding in the bound computation can never prune an update that
#: would have changed a distance.
_THR_SLACK = 1.0 + 1e-9


def farthest_point_sample(
    points: np.ndarray,
    num_samples: int,
    start_index: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample ``num_samples`` indices from ``(N, 3)`` points with FPS.

    Thin ``B=1`` wrapper around :func:`farthest_point_sample_batch`.

    Args:
        points: ``(N, 3)`` coordinates.
        num_samples: number of points to select (``1 <= n <= N``).
        start_index: index of the first sampled point.  The paper picks
            it randomly; pass an explicit index for determinism.
        rng: random generator used only when ``start_index`` is None.

    Returns:
        ``(n,)`` integer indices into ``points``, in sampling order.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    return farthest_point_sample_batch(
        points[None], num_samples, start_index, rng
    )[0]


def farthest_point_sample_batch(
    points: np.ndarray,
    num_samples: int,
    start_index: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """FPS over a ``(B, N, 3)`` batch with one vectorized distance
    update per pick for the *whole* batch.

    The ``n`` picks stay serial (each argmax depends on the previous
    update — the dependency EdgePC's sampler removes), but the per-pick
    work runs as single NumPy dispatches over ``B * N`` points instead
    of a Python loop over clouds.  With an explicit ``start_index``
    this is bit-identical to looping :func:`farthest_point_sample` per
    cloud; with a random start the batch draws all ``B`` starts from
    ``rng`` in one call, which consumes the generator differently than
    ``B`` independent per-cloud calls would.

    Returns:
        ``(B, n)`` int64 indices into each cloud, in sampling order.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != 3:
        raise ValueError(f"expected (B, N, 3) points, got {points.shape}")
    num_clouds, n_points, _ = points.shape
    if not 1 <= num_samples <= n_points:
        raise ValueError(
            f"num_samples must be in [1, {n_points}], got {num_samples}"
        )
    if start_index is None:
        rng = rng or np.random.default_rng(0)
        starts = rng.integers(n_points, size=num_clouds)
    elif not 0 <= start_index < n_points:
        raise ValueError("start_index out of range")
    else:
        starts = np.full(num_clouds, start_index, dtype=np.int64)

    rows = np.arange(num_clouds)
    selected = np.empty((num_clouds, num_samples), dtype=np.int64)
    selected[:, 0] = starts
    # D: squared distance from each point to its cloud's sampled set so
    # far, maintained via the expansion ||p - s||^2 = ||p||^2 - 2 p.s
    # + ||s||^2 with ||p||^2 hoisted out of the pick loop, instead of
    # materializing (B, N, 3) differences.  The dot product is an
    # einsum rather than a BLAS matmul: einsum's per-element rounding
    # is bit-identical regardless of array length, offset, batching,
    # and layout (BLAS kernels are not), which is what lets the pruned
    # sampler (:func:`farthest_point_sample_fast`) reproduce these
    # values exactly on gathered block slices.  Rounding in the
    # expansion can dip a hair below zero, which is harmless — the
    # values only feed minimum/argmax.  Selected points are pinned to
    # -1 (below any rounding error) so degenerate clouds (all
    # distances zero) still yield distinct indices.
    p_sq = np.einsum("bnc,bnc->bn", points, points)
    dot = np.empty_like(p_sq)
    delta = np.empty_like(p_sq)
    distance = np.empty_like(p_sq)

    def distance_to(picks: np.ndarray, out: np.ndarray) -> None:
        np.einsum("bnc,bc->bn", points, points[rows, picks], out=dot)
        np.multiply(dot, -2.0, out=out)
        out += p_sq
        out += p_sq[rows, picks][:, None]

    distance_to(starts, distance)
    distance[rows, starts] = -1.0
    for i in range(1, num_samples):
        # O(BN) update per pick -> O(nBN) total; picks are serial
        # because each argmax depends on the previous update.
        farthest = np.argmax(distance, axis=1)
        selected[:, i] = farthest
        distance_to(farthest, delta)
        np.minimum(distance, delta, out=distance)
        distance[rows, farthest] = -1.0
    return selected


@dataclass
class FastFpsStats:
    """Scan accounting for :func:`farthest_point_sample_fast`.

    The pruned sampler replaces the reference's unconditional
    ``n x N`` distance evaluations with per-block updates that are
    skipped whenever a geometric bound proves them no-ops, so the
    interesting quantity is how much of the worst case was actually
    scanned.  A single instance can be threaded through a batch (or a
    serving session) to accumulate totals.

    Attributes:
        num_points: total points across all sampled clouds.
        num_samples: total picks across all sampled clouds.
        points_scanned: distance evaluations actually performed.
        block_updates_applied: (block, pick) updates that ran.
        block_updates_pruned: (block, pick) updates skipped by the
            geometric bound (provably no-ops).
        worst_case: distance evaluations the unpruned reference would
            perform — ``N * n`` summed per cloud, not the product of
            the totals.
    """

    num_points: int = 0
    num_samples: int = 0
    points_scanned: int = 0
    block_updates_applied: int = 0
    block_updates_pruned: int = 0
    worst_case: int = 0

    @property
    def scan_fraction(self) -> float:
        """``points_scanned / worst_case`` (1.0 for an empty run)."""
        worst = self.worst_case
        return self.points_scanned / worst if worst else 1.0


def _fast_block_size(num_points: int) -> int:
    """Default Morton-block width.

    Small blocks prune tighter (each carries a smaller bounding
    sphere), and the per-pick block bookkeeping is a handful of
    vectorized ``O(N / W)`` dispatches either way, so narrow widths
    win; 16-48 measured best from 8k to 100k points."""
    return 16 if num_points <= 16384 else 32


def farthest_point_sample_fast(
    points: np.ndarray,
    num_samples: int,
    start_index: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    block_size: Optional[int] = None,
    stats: Optional[FastFpsStats] = None,
) -> np.ndarray:
    """Pruning FPS (FlashFPS-style), bit-identical to the reference.

    Same greedy farthest-point chain as :func:`farthest_point_sample`,
    but the ``O(nN)`` per-pick distance pass is pruned with
    Morton-contiguous blocks:

    - points are partitioned into blocks of Morton-order neighbors, so
      each block is spatially tight and carries a meaningful bounding
      sphere;
    - each block caches the exact maximum of its points'
      distance-to-picked-set, so the per-pick argmax is an ``O(N/W)``
      scan over block maxima instead of ``O(N)`` over points;
    - a pick whose geometric lower bound ``(||pick - center|| - r)^2``
      to a block already exceeds that block's maximum is provably a
      no-op for every point in the block and is pruned without
      touching any of them; the surviving blocks are updated in one
      vectorized gather/scatter pass per pick.

    Bit-exactness: pruned updates are exact no-ops, applied updates run
    the reference's elementwise distance expression (whose per-element
    rounding is independent of slice offset, length, and layout) on
    block slices, and the min-fold over picks is exactly associative —
    so every pick, including index tie-breaks (lowest original index,
    matching ``np.argmax``), equals the reference's.

    Args:
        points: ``(N, 3)`` float coordinates (cast to float64).
        num_samples: number of points to select (``1 <= n <= N``).
        start_index: index of the first sampled point.  ``None`` with
            ``rng`` draws it like the reference; ``None`` without
            ``rng`` seeds from the Morton-first point (rank 0), which
            approximates the lowest corner of the cloud and is fully
            deterministic.
        rng: random generator used only when ``start_index`` is None.
        block_size: Morton-block width (``>= 2``); default scales as
            ``~sqrt(8 N)``.
        stats: optional :class:`FastFpsStats` accumulating scan counts.

    Returns:
        ``(n,)`` int64 indices into ``points``, in sampling order —
        byte-identical to :func:`farthest_point_sample` for the same
        ``start_index``.
    """
    from repro.core.structurize import structurize_batch

    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got {points.shape}")
    n_points = points.shape[0]
    if not 1 <= num_samples <= n_points:
        raise ValueError(
            f"num_samples must be in [1, {n_points}], got {num_samples}"
        )
    order = structurize_batch(points[None])
    perm = order.permutation[0]
    if start_index is None:
        if rng is not None:
            start = int(rng.integers(n_points))
        else:
            start = int(perm[0])
    elif not 0 <= start_index < n_points:
        raise ValueError("start_index out of range")
    else:
        start = int(start_index)

    if stats is not None:
        stats.num_points += n_points
        stats.num_samples += num_samples
        stats.worst_case += fps_operation_count(n_points, num_samples)
    selected = np.empty(num_samples, dtype=np.int64)
    selected[0] = start
    if num_samples == 1:
        return selected

    if block_size is None:
        block_size = _fast_block_size(n_points)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    pos_of = order.ranks[0]  # original index -> sorted position
    sp = points[perm]  # Morton-sorted coordinates
    # ||p||^2 with the exact einsum shape the reference uses, gathered
    # into sorted order (gather preserves bits; recomputing may not).
    p_sq_orig = np.einsum("bnc,bnc->bn", points[None], points[None])[0]
    p_sq = p_sq_orig[perm]

    # Blocked layout: nb uniform-width blocks over the sorted order,
    # the last padded up to block_size.  Pad lanes copy a real point of
    # their block (so they never widen its bounding sphere) but carry
    # ||p||^2 = -inf, which drives their cached distance to -inf —
    # below every real value (selected points pin to -1), so pads can
    # never win a max and a min-update keeps them at -inf.
    nb = -(-n_points // block_size)
    padded = nb * block_size
    sp_b = np.zeros((nb, block_size, 3), dtype=np.float64)
    sp_b.reshape(-1, 3)[:n_points] = sp
    p_sq_b = np.full((nb, block_size), -np.inf, dtype=np.float64)
    p_sq_b.reshape(-1)[:n_points] = p_sq
    # Bounding sphere per block; the radius is inflated a hair so
    # rounding in the half-diagonal cannot shrink the true enclosing
    # sphere.  Pads reuse the first block point so they never widen it.
    sp_pad = sp_b.reshape(-1, 3)
    if padded > n_points:
        sp_pad[n_points:] = sp[n_points - n_points % block_size]
    lo_c = sp_b.min(axis=1)
    hi_c = sp_b.max(axis=1)
    centers = 0.5 * (lo_c + hi_c)
    radii = 0.5 * np.sqrt(np.sum((hi_c - lo_c) ** 2, axis=1))
    radii *= 1.0 + 1e-12
    # Center coordinates as (3, nb) planes: the per-pick bound test
    # broadcasts the pick against all centers in one dispatch.
    centers_t = np.ascontiguousarray(centers.T)

    # D (blocked): squared distance to the picked set, bit-identical
    # to the reference's array on real lanes; selected points are
    # pinned to -1 exactly like the reference.  The dot product uses
    # the same einsum kernel as the reference, whose per-element
    # rounding is independent of shape, offset, and gathering, on
    # coordinates pre-scaled by -2 — scaling by a power of two is
    # exact and commutes bitwise with the einsum accumulation, so
    # einsum(-2 p, s) == -2 einsum(p, s) while saving one full pass
    # over the update slab per pick.
    sp_m2 = sp_b * -2.0
    start_pos = int(pos_of[start])
    s_vec = sp_pad[start_pos].copy()
    D = np.einsum("kbc,c->kb", sp_m2, s_vec)
    D += p_sq_b
    D += p_sq_orig[start]
    D[start_pos // block_size, start_pos % block_size] = -1.0
    if stats is not None:
        stats.points_scanned += n_points

    # Exact per-block maxima of D (kept exact throughout: a pruned
    # update is a proven no-op, so skipping it cannot stale the max)
    # and the derived prune threshold: block b must fold pick s in if
    # ||s - center_b||^2 < (r_b + sqrt(max(max_b, 0)))^2, inflated so
    # float rounding can never prune an update that would land.
    # (Admitting a block the exact geometry would skip is harmless:
    # applied updates always compute exact reference values.)
    ubs = D.max(axis=1)
    thr2 = np.sqrt(np.maximum(ubs, 0.0))
    thr2 += radii
    thr2 *= thr2
    thr2 *= _THR_SLACK
    # Real (non-pad) lanes per block, for honest scan accounting.
    lens_b = np.full(nb, block_size, dtype=np.int64)
    lens_b[-1] = n_points - (nb - 1) * block_size
    # Reused per-pick scratch (the pick loop is dispatch-bound, so
    # every avoidable allocation and wrapper layer counts).
    s_col = np.empty((3, 1), dtype=np.float64)
    diff = np.empty_like(centers_t)
    dc2 = np.empty(nb, dtype=np.float64)
    mask_b = np.empty(nb, dtype=bool)
    mask_l = np.empty(block_size, dtype=bool)
    d_buf = np.empty_like(D)
    mx_buf = np.empty(nb, dtype=np.float64)
    # Ufunc bindings hoisted out of the pick loop: at ~25 numpy
    # dispatches per pick, even attribute lookups are measurable.
    _sub, _mul, _less = np.subtract, np.multiply, np.less
    _addred, _maxred = np.add.reduce, np.maximum.reduce
    _minimum, _maximum, _sqrt = np.minimum, np.maximum, np.sqrt
    _equal, _cnz = np.equal, np.count_nonzero

    def apply_pick(pos: int) -> None:
        """Fold the distances to the pick at sorted position ``pos``
        into ``D``, skipping provably untouched blocks."""
        s = sp_pad[pos]
        # Squared pick-to-center distance in subtract-first form: its
        # rounding error is relative (no cancellation), so the 1e-9
        # threshold slack strictly dominates it.
        s_col[0, 0] = s[0]
        s_col[1, 0] = s[1]
        s_col[2, 0] = s[2]
        _sub(centers_t, s_col, out=diff)
        _mul(diff, diff, out=diff)
        _addred(diff, axis=0, out=dc2)
        _less(dc2, thr2, out=mask_b)
        # The pick's own block always participates: the caller just
        # pinned the pick's lane to -1 and relies on this update to
        # recompute the block's exact maximum (and threshold).
        mask_b[pos // block_size] = True
        need = mask_b.nonzero()[0]
        applied = need.shape[0]
        if stats is not None:
            stats.block_updates_applied += applied
            stats.block_updates_pruned += nb - applied
            stats.points_scanned += int(lens_b[need].sum())
        if not applied:
            return
        d = d_buf[:applied]
        _einsum("kbc,c->kb", sp_m2[need], s, out=d)
        d += p_sq_b[need]
        d += p_sq_b[pos // block_size, pos % block_size]
        _minimum(D[need], d, out=d)
        D[need] = d
        maxima = _maxred(d, axis=1, out=mx_buf[:applied])
        ubs[need] = maxima
        th = _maximum(maxima, 0.0)
        _sqrt(th, out=th)
        th += radii[need]
        th *= th
        th *= _THR_SLACK
        thr2[need] = th

    for i in range(1, num_samples):
        # ubs holds exact block maxima, so their max equals the
        # reference's argmax value; among exact value ties the
        # reference's np.argmax takes the lowest original index, which
        # we recover by scanning every tied block (pads sit at -inf
        # and never tie: real maxima are pinned at >= -1).
        b0 = int(ubs.argmax())
        best = ubs[b0]
        _equal(ubs, best, out=mask_b)
        if _cnz(mask_b) == 1:
            _equal(D[b0], best, out=mask_l)
            hits = mask_l.nonzero()[0]
            if hits.shape[0] == 1:
                winner = int(perm[b0 * block_size + int(hits[0])])
            else:
                winner = int(perm[b0 * block_size + hits].min())
        else:
            winner = -1
            for b in mask_b.nonzero()[0]:
                hits = (D[b] == best).nonzero()[0]
                cand = int(perm[int(b) * block_size + hits].min())
                if winner < 0 or cand < winner:
                    winner = cand
        pos = int(pos_of[winner])
        selected[i] = winner
        wb, lane = pos // block_size, pos % block_size
        D[wb, lane] = -1.0
        if i + 1 < num_samples:
            # apply_pick force-includes block wb, refreshing its exact
            # maximum and threshold after the pin above; after the
            # final pick the (stale) bookkeeping is never read again.
            apply_pick(pos)
    return selected


def farthest_point_sample_fast_batch(
    points: np.ndarray,
    num_samples: int,
    start_index: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    block_size: Optional[int] = None,
    stats: Optional[FastFpsStats] = None,
) -> np.ndarray:
    """Pruning FPS over a ``(B, N, 3)`` batch.

    The pick chain is serial and the pruning state (block bounds,
    cached distances) is data-dependent per cloud, so the batch axis is
    a loop over :func:`farthest_point_sample_fast` — unlike the brute
    batch kernel there is no shared per-pick dispatch to amortize.  The
    fast path wins at large ``N`` where per-cloud pruning dominates.

    With ``start_index=None`` and an explicit ``rng``, the ``B`` start
    indices are drawn in one ``rng.integers(N, size=B)`` call, matching
    :func:`farthest_point_sample_batch`'s generator consumption
    exactly; with no ``rng`` either, each cloud seeds from its
    Morton-first point.

    Returns:
        ``(B, n)`` int64 indices into each cloud, in sampling order —
        byte-identical to :func:`farthest_point_sample_batch` for the
        same starts.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != 3:
        raise ValueError(f"expected (B, N, 3) points, got {points.shape}")
    num_clouds, n_points, _ = points.shape
    if not 1 <= num_samples <= n_points:
        raise ValueError(
            f"num_samples must be in [1, {n_points}], got {num_samples}"
        )
    starts: Optional[np.ndarray] = None
    if start_index is None and rng is not None:
        starts = rng.integers(n_points, size=num_clouds)
    selected = np.empty((num_clouds, num_samples), dtype=np.int64)
    # Each cloud keeps its own block partition and pruning bounds.
    # repro: allow[PERF-104]
    for row in range(num_clouds):
        selected[row] = farthest_point_sample_fast(
            points[row],
            num_samples,
            start_index=(
                int(starts[row]) if starts is not None else start_index
            ),
            block_size=block_size,
            stats=stats,
        )
    return selected


def fps_operation_count(num_points: int, num_samples: int) -> int:
    """Distance evaluations the reference FPS performs: ``n`` passes
    over ``N`` points.

    The pruned sampler (:func:`farthest_point_sample_fast`) scans a
    data-dependent subset of that, counted in :class:`FastFpsStats`;
    this unpruned bound is its ``worst_case`` and what op plans price
    either sampler at.
    """
    if num_points < 0 or num_samples < 0:
        raise ValueError("counts must be non-negative")
    return num_points * num_samples


def coverage_radius(
    points: np.ndarray, sampled_indices: np.ndarray
) -> float:
    """Largest distance from any point to its nearest sampled point.

    The standard quality metric for down-sampling: FPS greedily
    (2-approximately) minimizes it.  Lower is better.
    """
    points = np.asarray(points, dtype=np.float64)
    sampled = points[np.asarray(sampled_indices)]
    # Chunk the distance matrix so 40k-point clouds don't blow memory.
    worst = 0.0
    chunk = 4096
    for lo in range(0, points.shape[0], chunk):
        block = points[lo : lo + chunk]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ sampled.T
            + np.sum(sampled**2, axis=1)[None, :]
        )
        worst = max(worst, float(np.sqrt(max(d2.min(axis=1).max(), 0.0))))
    return worst
