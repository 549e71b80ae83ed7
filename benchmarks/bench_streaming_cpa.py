"""Bench: streaming CPA vs. batch CPA — throughput and peak memory.

The streaming accumulators exist so campaigns never materialize the
full trace matrix.  This bench feeds the same synthetic campaign
(>= 100k traces) through both paths, checks the correlations are
bit-identical, and asserts the streamed path's peak allocation stays
strictly below the batch path's (whose float64 hypothesis/trace
conversions scale with the campaign, not the chunk).
"""

import gc
import time
import tracemalloc

import numpy as np
from conftest import full_scale, run_once
from repro.attacks.cpa import CPAAttack

N_TRACES = 500_000 if full_scale() else 120_000
N_SAMPLES = 45
CHUNK = 4096


def trace_chunks(n_traces, chunk, seed=0):
    """The synthetic campaign, generated chunk-by-chunk (identical
    stream for both paths)."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_traces, chunk):
        m = min(chunk, n_traces - start)
        traces = rng.integers(0, 48, size=(m, N_SAMPLES)).astype(np.int16)
        cts = rng.integers(0, 256, size=(m, 16), dtype=np.uint8)
        yield traces, cts


def run_batch(n_traces):
    """Materialize the whole campaign, then accumulate it in one call."""
    parts = list(trace_chunks(n_traces, CHUNK))
    traces = np.vstack([t for t, _ in parts])
    cts = np.vstack([c for _, c in parts])
    del parts
    attack = CPAAttack(N_SAMPLES)
    attack.add_traces(traces, cts)
    return attack.peak_correlations()


def run_streaming(n_traces):
    """Fold the campaign chunk-by-chunk; no full matrix ever exists."""
    attack = CPAAttack(N_SAMPLES)
    for traces, cts in trace_chunks(n_traces, CHUNK):
        attack.add_traces(traces, cts)
    return attack.peak_correlations()


def measure(fn, *args):
    """``(result, seconds, peak_bytes)`` of one traced run."""
    gc.collect()
    tracemalloc.start()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def test_streaming_cpa_memory_and_throughput(benchmark):
    batch_peaks, batch_secs, batch_mem = measure(run_batch, N_TRACES)
    stream_peaks, stream_secs, stream_mem = measure(run_streaming, N_TRACES)

    # Same campaign, same statistic: bit-identical output.
    np.testing.assert_array_equal(stream_peaks, batch_peaks)

    # The point of streaming: peak memory strictly below batch.
    assert stream_mem < batch_mem, (
        f"streaming peaked at {stream_mem / 1e6:.0f} MB, "
        f"not below batch {batch_mem / 1e6:.0f} MB"
    )

    # Untraced wall clock for the report.
    run_once(benchmark, run_streaming, N_TRACES)
    benchmark.extra_info["n_traces"] = N_TRACES
    benchmark.extra_info["chunk"] = CHUNK
    benchmark.extra_info["batch_peak_mb"] = round(batch_mem / 1e6, 1)
    benchmark.extra_info["stream_peak_mb"] = round(stream_mem / 1e6, 1)
    benchmark.extra_info["batch_traces_per_s"] = round(N_TRACES / batch_secs)
    benchmark.extra_info["stream_traces_per_s"] = round(N_TRACES / stream_secs)
