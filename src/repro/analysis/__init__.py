"""Statistics and sweep utilities shared by the experiments."""

from repro.analysis.stats import (
    linear_regression,
    pearson,
    snr,
    welch_t_test,
)
from repro.analysis.streaming import (
    SharedTraceMoments,
    StackedStreamingPearson,
    StreamingPearson,
    StreamingWelchT,
    SumMoments,
    WelfordMoments,
    iter_chunk_slices,
    validate_chunk_size,
)
from repro.analysis.sweep import SweepResult, sweep

__all__ = [
    "linear_regression",
    "pearson",
    "snr",
    "welch_t_test",
    "SharedTraceMoments",
    "StackedStreamingPearson",
    "StreamingPearson",
    "StreamingWelchT",
    "SumMoments",
    "WelfordMoments",
    "iter_chunk_slices",
    "validate_chunk_size",
    "SweepResult",
    "sweep",
]
