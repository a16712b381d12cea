"""Reference outputs shipped with the benchmark, and the check against them.

Every workload draws its inputs from a fixed bank of clouds (see
``workloads.bank``); ``references.npz`` holds, per bank cloud, a summary
of the program's output for that cloud when the references were made:

- ``labels``: the argmax label of every output row (every point for
  segmentation, the single row for classification) — must match exactly;
- ``rows``: the logits of up to ``SAMPLED_ROWS`` evenly spaced rows, and
- ``mean``: the per-class mean of the logits over all rows — both must
  match within ``|got - ref| <= ATOL + RTOL * |ref|``.

The per-cloud outputs of the models do not depend on which other clouds
share the batch, so one summary per cloud covers every frame or served
batch a ``--seed`` can form.  Regenerate with ``python3 perfbench/make_references.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("references.npz")
SAMPLED_ROWS = 16
RTOL = 1e-6
ATOL = 1e-6


def summarize(logits: np.ndarray) -> Dict[str, np.ndarray]:
    """Summary of one cloud's logits: ``(N, C)`` rows or a ``(C,)`` row."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    n_rows = logits.shape[0]
    picked = np.linspace(0, n_rows - 1, min(SAMPLED_ROWS, n_rows))
    return {
        "labels": logits.argmax(axis=-1).astype(np.uint8),
        "rows": logits[picked.astype(np.int64)],
        "mean": logits.mean(axis=0),
    }


class References:
    """The shipped summaries of one workload's bank."""

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self.labels = arrays["labels"]
        self.rows = arrays["rows"]
        self.mean = arrays["mean"]

    def __len__(self) -> int:
        return self.labels.shape[0]

    def matches(self, cloud_index: int, logits: np.ndarray) -> bool:
        """Whether ``logits`` for bank cloud ``cloud_index`` match."""
        got = summarize(logits)
        if got["labels"].shape != self.labels[cloud_index].shape:
            return False
        return bool(
            np.array_equal(got["labels"], self.labels[cloud_index])
            and np.allclose(
                got["rows"], self.rows[cloud_index], rtol=RTOL, atol=ATOL
            )
            and np.allclose(
                got["mean"], self.mean[cloud_index], rtol=RTOL, atol=ATOL
            )
        )


def load(workload: str) -> References:
    """Load the shipped references of ``workload``."""
    with np.load(REFERENCE_FILE) as data:
        return References(
            {
                key: data[f"{workload}/{key}"]
                for key in ("labels", "rows", "mean")
            }
        )


def save(summaries: Dict[str, list]) -> None:
    """Write ``{workload: [summary per bank cloud]}`` to the shipped file."""
    arrays = {}
    for workload, per_cloud in summaries.items():
        for key in ("labels", "rows", "mean"):
            arrays[f"{workload}/{key}"] = np.stack(
                [summary[key] for summary in per_cloud]
            )
    np.savez_compressed(REFERENCE_FILE, **arrays)
