"""EdgePC's primary contribution: Morton-code structurization and the
approximate sampler / neighbor searcher built on it."""

from repro.core.hilbert import hilbert_encode, hilbert_structurize
from repro.core.morton import DEFAULT_CODE_BITS, decode, encode
from repro.core.neighbor import MortonNeighborSearch
from repro.core.pipeline import EdgePCConfig
from repro.core.reuse import NeighborCache, NeighborReusePolicy
from repro.core.sampler import (
    BatchedSampleResult,
    MortonSampler,
    MortonUpsampler,
)
from repro.core.streaming import StreamingMortonOrder
from repro.core.structurize import (
    BatchedMortonOrder,
    structurize_batch,
    structuredness,
)
from repro.core.workspace import DEFAULT_SCRATCH_BYTES, Workspace

__all__ = [
    "DEFAULT_CODE_BITS",
    "DEFAULT_SCRATCH_BYTES",
    "Workspace",
    "encode",
    "decode",
    "structurize_batch",
    "BatchedMortonOrder",
    "BatchedSampleResult",
    "structuredness",
    "MortonSampler",
    "MortonUpsampler",
    "MortonNeighborSearch",
    "NeighborReusePolicy",
    "NeighborCache",
    "EdgePCConfig",
    "StreamingMortonOrder",
    "hilbert_encode",
    "hilbert_structurize",
]
