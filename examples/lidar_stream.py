"""Streaming LiDAR scenario: per-frame EdgePC preprocessing under a
latency budget, on simulated outdoor driving sweeps.

The paper's motivating application (Fig. 1a): an autonomous platform
scans its surroundings and must sample + group every frame before the
CNN can run.  This example simulates a stream of LiDAR sweeps,
shares one quantization grid across all frames (so Morton codes are
comparable frame to frame), and checks each frame's simulated
preprocessing latency against a real-time budget — baseline vs EdgePC.
"""

import numpy as np

from repro import EdgePCConfig, MortonNeighborSearch, MortonSampler
from repro.datasets import KITTILike
from repro.geometry import BoundingBox
from repro.nn.recorder import (
    STAGE_NEIGHBOR,
    STAGE_SAMPLE,
    StageEvent,
)
from repro.runtime import CostModel, xavier

NUM_FRAMES = 8
POINTS_PER_FRAME = 4096
SAMPLES_PER_FRAME = 512
K = 16
FRAME_BUDGET_MS = 33.3  # 30 FPS


def simulated_latency_ms(cost: CostModel, use_edgepc: bool) -> float:
    """Per-frame sample + neighbor-search latency on the device."""
    if use_edgepc:
        events = [
            StageEvent(STAGE_SAMPLE, "morton_gen", 0,
                       {"n_points": POINTS_PER_FRAME, "batch": 1}),
            StageEvent(STAGE_SAMPLE, "morton_sort", 0,
                       {"n_points": POINTS_PER_FRAME, "batch": 1}),
            StageEvent(STAGE_SAMPLE, "uniform_pick", 0,
                       {"n_samples": SAMPLES_PER_FRAME, "batch": 1}),
            StageEvent(STAGE_NEIGHBOR, "morton_window", 0,
                       {"n_queries": SAMPLES_PER_FRAME,
                        "window": 2 * K, "k": K, "batch": 1}),
        ]
    else:
        events = [
            StageEvent(STAGE_SAMPLE, "fps", 0,
                       {"n_points": POINTS_PER_FRAME,
                        "n_samples": SAMPLES_PER_FRAME, "batch": 1}),
            StageEvent(STAGE_NEIGHBOR, "ball_query", 0,
                       {"n_queries": SAMPLES_PER_FRAME,
                        "n_candidates": POINTS_PER_FRAME, "k": K,
                        "batch": 1}),
        ]
    return sum(cost.price(e) for e in events) * 1e3


def main() -> None:
    # A sequence of outdoor LiDAR sweeps (KITTI-like ray casting).
    frames = KITTILike(
        num_clouds=NUM_FRAMES, points_per_cloud=POINTS_PER_FRAME,
        seed=3,
    )
    # A fixed scene-level grid keeps Morton codes comparable across
    # frames (pass an explicit bounding box instead of per-frame ones).
    scene_box = BoundingBox(
        np.array([-32.0, -32.0, -1.0]), np.array([32.0, 32.0, 10.0])
    )
    sampler = MortonSampler(bounding_box=scene_box)
    searcher = MortonNeighborSearch(K, 2 * K)
    cost = CostModel(xavier())

    base_ms = simulated_latency_ms(cost, use_edgepc=False)
    edge_ms = simulated_latency_ms(cost, use_edgepc=True)
    print(
        f"Simulated per-frame sample+NS latency: baseline "
        f"{base_ms:.1f} ms vs EdgePC {edge_ms:.1f} ms "
        f"(budget {FRAME_BUDGET_MS:.1f} ms @ 30 FPS)"
    )
    print(
        f"baseline {'misses' if base_ms > FRAME_BUDGET_MS else 'meets'}"
        f" the budget; EdgePC "
        f"{'misses' if edge_ms > FRAME_BUDGET_MS else 'meets'} it\n"
    )

    for i, frame in enumerate(frames):
        batch = frame.xyz[None]
        result = sampler.sample_batch(batch, SAMPLES_PER_FRAME)
        neighbors = searcher.search_batch(
            batch, result.indices, result.order
        )[0]
        spread = frame.xyz[result.indices[0]].std(axis=0)
        print(
            f"frame {i}: sampled {len(result)} pts "
            f"(spread {spread[0]:.2f}/{spread[1]:.2f}/{spread[2]:.2f}),"
            f" grouped {neighbors.shape[0]}x{neighbors.shape[1]} "
            "neighborhoods"
        )


if __name__ == "__main__":
    main()
