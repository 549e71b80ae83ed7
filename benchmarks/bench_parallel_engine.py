"""Bench: the parallel acquisition engine vs. the serial path.

Collects one AES campaign twice — serial (``workers=1``) and pooled
(``workers=4``) — verifies the outputs are bit-identical, and reports
the speedup.  On a machine with at least four cores the pooled run must
beat the serial one by >= 1.8x.
"""

import os

import numpy as np
from conftest import full_scale, run_once

from repro.experiments import common
from repro.experiments.table1_traces import DEFAULT_KEY
from repro.runtime import Engine
from repro.traces.acquisition import AcquisitionSpec

POOL_WORKERS = 4


def _make_acquisition():
    setup = common.Basys3Setup.create()
    sensor = common.make_leakydsp(
        setup, common.placement_pblock(setup.device, "P6"), seed=7
    )
    hw = common.make_hw_model(common.AES_CLOCK, setup.constants)
    return AcquisitionSpec(
        sensor=sensor,
        coupling=setup.coupling,
        hw_model=hw,
        aes_position=common.AES_POSITION,
    ).build()


def test_parallel_collect_speedup(benchmark):
    n_traces = 60_000 if full_scale() else 12_000
    acq = _make_acquisition()

    import time

    t0 = time.perf_counter()
    [serial] = Engine(workers=1).collect_many(
        [acq], n_traces, key=DEFAULT_KEY, seed=3
    )
    serial_seconds = time.perf_counter() - t0

    pooled_engine = Engine(workers=POOL_WORKERS)
    [pooled] = run_once(
        benchmark, pooled_engine.collect_many, [acq], n_traces,
        key=DEFAULT_KEY, seed=3,
    )

    # Worker count must not change a single bit of the output.
    np.testing.assert_array_equal(pooled.traces, serial.traces)
    np.testing.assert_array_equal(pooled.plaintexts, serial.plaintexts)
    np.testing.assert_array_equal(pooled.ciphertexts, serial.ciphertexts)

    pooled_seconds = pooled_engine.last_metrics.wall_seconds
    speedup = serial_seconds / pooled_seconds
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 2)
    benchmark.extra_info["pooled_seconds"] = round(pooled_seconds, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["traces_per_second"] = round(
        pooled_engine.last_metrics.items_per_second
    )

    if (os.cpu_count() or 1) >= POOL_WORKERS:
        assert speedup >= 1.8, (
            f"expected >=1.8x speedup with {POOL_WORKERS} workers on "
            f"{os.cpu_count()} cores, got {speedup:.2f}x"
        )
