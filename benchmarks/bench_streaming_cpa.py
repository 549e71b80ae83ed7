"""Bench: streaming CPA vs. batch CPA — throughput and peak memory.

The streaming accumulators exist so campaigns never materialize the
full trace matrix.  This bench feeds the same synthetic campaign
(>= 100k traces) through both paths, checks the correlations are
bit-identical, and asserts the streamed path's peak allocation stays
strictly below the batch path's (whose float64 hypothesis/trace
conversions scale with the campaign, not the chunk).

A second row gates what each sensor of a serial fan-out stream
campaign keeps resident: the traced peak of a Fig. 5-density campaign
(a checkpoint every 2.5k traces, key-rank peaks read at each) over 5
sensors against 1 sensor.  Each added sensor may cost at most 1.5x one
accumulator's sums plus one shard's int16 readouts.  tracemalloc counts
are deterministic, so the gate holds on any machine.
"""

import gc
import time
import tracemalloc
from functools import partial

import numpy as np
from conftest import full_scale, run_once
from repro.attacks import cpa
from repro.attacks.cpa import CPAAttack
from repro.experiments import common
from repro.runtime import Engine
from repro.traces.acquisition import MultiSensorAcquisition

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


#: Fig. 5 checkpoint density, at the engine's default shard size.
STEP = 2_500
SHARD = 4_096
FANOUT_TRACES = 3 * SHARD
#: Allowed traced bytes per added sensor, in units of one accumulator's
#: sums plus one shard's int16 readouts.
MAX_BYTES_PER_SENSOR = 1.5


def serial_stream_peak(n_sensors: int) -> tuple:
    """``(traced peak bytes, one accumulator's sum bytes, one shard's
    readout bytes)`` of a serial fan-out stream campaign over the first
    ``n_sensors`` Fig. 5 placements."""
    # The harnesses (device grids, sensor models) are built untraced:
    # the row measures the campaign, not the victim setup.
    msa = MultiSensorAcquisition(
        common.placement_specs(common.FIG5_PLACEMENTS[:n_sensors])
    )
    n_samples = msa.default_n_samples()
    window = common.last_round_window(msa[0].hw_model, n_samples)
    factory = partial(CPAAttack, n_samples, window)
    engine = Engine(workers=1, shard_size=SHARD)
    # Each campaign sizes the thread's CPA tile scratch for its own
    # fan-out (the stacked product grows with it) inside the trace.
    cpa._SCRATCH.pool.clear()
    gc.collect()
    tracemalloc.start()
    engine.stream_attack_many(
        msa, FANOUT_TRACES, key=bytes(range(16)), consumer_factory=factory,
        seed=1, checkpoints=range(STEP, FANOUT_TRACES + 1, STEP),
        on_checkpoint=lambda index, done, acc: acc.peak_correlations(),
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    sums = sum(a.nbytes for a in factory().state_arrays().values())
    return peak, sums, SHARD * n_samples * np.dtype(np.int16).itemsize


def test_serial_stream_memory_per_sensor(benchmark):
    serial_stream_peak(1)  # warm every process-wide table and scratch
    one, sums, readouts = serial_stream_peak(1)
    five, _, _ = run_once(benchmark, serial_stream_peak, 5)
    per_sensor = (five - one) / 4
    budget = MAX_BYTES_PER_SENSOR * (sums + readouts)
    benchmark.extra_info["peak_1_sensor_mb"] = round(one / 1e6, 2)
    benchmark.extra_info["peak_5_sensors_mb"] = round(five / 1e6, 2)
    benchmark.extra_info["per_added_sensor_mb"] = round(per_sensor / 1e6, 2)
    benchmark.extra_info["budget_per_sensor_mb"] = round(budget / 1e6, 2)
    assert per_sensor <= budget, (
        f"each added sensor keeps {per_sensor / 1e6:.2f} MB resident, over "
        f"{MAX_BYTES_PER_SENSOR}x (accumulator {sums / 1e6:.2f} MB + shard "
        f"readouts {readouts / 1e6:.2f} MB) = {budget / 1e6:.2f} MB"
    )
