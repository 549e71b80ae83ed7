"""Statistics shared by the experiments and the streaming attacks."""

from repro.analysis.stats import (
    linear_regression,
    pearson,
)
from repro.analysis.streaming import (
    SharedTraceMoments,
    StackedStreamingPearson,
    StreamingPearson,
    iter_chunk_slices,
    validate_chunk_size,
)

__all__ = [
    "linear_regression",
    "pearson",
    "SharedTraceMoments",
    "StackedStreamingPearson",
    "StreamingPearson",
    "iter_chunk_slices",
    "validate_chunk_size",
]
