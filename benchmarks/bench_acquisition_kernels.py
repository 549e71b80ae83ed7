"""Bench: the fused acquisition kernel vs. the pre-kernel baseline.

The fused kernel replaces the per-chunk ``lfilter`` with one matmul
against the precomputed PDN step-response basis, runs the cipher once
instead of twice, and tiles the sensor-model interpolation to stay
cache-resident.  This bench drives both acquisition paths over the
default AES-campaign configuration (20 MHz AES, 300 MHz sensor,
4096-trace blocks), checks the fused output is bit-identical to the
baseline, asserts the >= 3x speedup the fusion exists for, and records
the per-stage numbers in ``BENCH_acquisition.json``.

The "baseline" path, kept inline here, replicates the pre-kernel-layer
``acquire_block``: HW8 byte-table Hamming distances, a second full
cipher run for the ciphertexts, and the unfused current-waveform ->
lfilter -> interp pipeline (the same pipeline as the test suite's
reference oracle kernel).
"""

import json
import time
from pathlib import Path

import numpy as np
from conftest import full_scale, run_once
from repro.core.calibration import calibrate
from repro.core.leaky_dsp import LeakyDSP
from repro.core.sensor import SamplingMethod
from repro.fpga.device import xc7a35t
from repro.fpga.placement import Pblock, Placer
from repro.kernels import StageProfile, get_kernel
from repro.experiments import common
from repro.pdn.coupling import CouplingModel
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec, MultiSensorAcquisition
from repro.victims.aes import AES128, AESHardwareModel
from repro.victims.aes.sbox import HW8

KEY = bytes(range(16))
BLOCK = 4096  # the engine's default shard size
N_BLOCKS = 10 if full_scale() else 6
FANOUT_REPS = 3 if full_scale() else 2
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_acquisition.json"


def make_rig():
    device = xc7a35t()
    coupling = CouplingModel(device)
    sensor = LeakyDSP(device=device, seed=7)
    sensor.place(
        Placer(device), pblock=Pblock.from_region(device.region_by_name("X1Y0"))
    )
    calibrate(sensor, rng=0)
    sensor.precompute_moments()
    hw = AESHardwareModel(ClockSpec(20e6), ClockSpec(300e6))
    return AcquisitionSpec(
        sensor=sensor, coupling=coupling, hw_model=hw, aes_position=(10.0, 25.0)
    ).build()


def merge_report(sections):
    """Fold one bench's numbers into ``BENCH_acquisition.json`` without
    clobbering the other bench's sections."""
    report = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    report.update(sections)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")


def baseline_hamming_distances(aes, plaintexts):
    """The pre-PR HD computation: HW8 byte-table gather."""
    states = aes.round_states(plaintexts)
    previous_final = states[:, 0] ^ aes.round_keys[0]
    hd = np.empty((states.shape[0], AES128.CYCLES_PER_BLOCK), dtype=np.int64)
    hd[:, 0] = HW8[previous_final ^ states[:, 0]].sum(axis=1)
    flips = states[:, 1:] ^ states[:, :-1]
    hd[:, 1:] = HW8[flips].sum(axis=2)
    return hd


def baseline_acquire_block(acq, aes, plaintexts, rng, n_samples, profile):
    """The pre-PR ``acquire_block`` pipeline, stage-timed: double cipher
    run, per-chunk lfilter, unfused sensor interpolation."""
    m = plaintexts.shape[0]
    sensor_pos = acq.sensor.require_position()
    kappa = acq.coupling.kappa(sensor_pos, acq.aes_position)
    dt = acq.hw_model.sensor_clock.period

    t0 = time.perf_counter()
    hd = baseline_hamming_distances(aes, plaintexts)
    cts = aes.encrypt_blocks(plaintexts)
    t1 = time.perf_counter()
    currents = acq.hw_model.current_waveform(hd, n_samples=n_samples)
    droop = kappa * acq.coupling.filter_currents(currents, dt)
    t2 = time.perf_counter()
    volts = acq.sensor.constants.v_nominal - droop
    volts += acq.noise.sample(m * n_samples, rng).reshape(m, n_samples)
    readouts = acq.sensor.sample_readouts(
        volts, rng=rng, method=SamplingMethod.NORMAL
    )
    t3 = time.perf_counter()
    profile.add("aes", t1 - t0, items=m)
    profile.add("pdn", t2 - t1, items=m)
    profile.add("sensor", t3 - t2, items=m)
    return readouts.astype(np.int16), cts


def drive(acq, n_samples, run_block):
    """Run ``N_BLOCKS`` identically-seeded blocks (plus one unmeasured
    warm-up) through one acquisition path.

    Returns the block outputs, the per-block wall seconds and the merged
    stage profile.  Speedups are computed from the per-block *minimum* —
    the least load-sensitive estimator of a path's actual cost — while
    the report also keeps the plain totals.
    """
    aes = AES128(KEY)
    profile = StageProfile()
    run_block(aes, 0, StageProfile())  # warm-up: caches, BLAS threads
    outputs = []
    block_seconds = []
    for index in range(N_BLOCKS):
        t0 = time.perf_counter()
        outputs.append(run_block(aes, index, profile))
        block_seconds.append(time.perf_counter() - t0)
    return outputs, block_seconds, profile


def path_report(block_seconds, profile):
    total = sum(block_seconds)
    return {
        "seconds_per_block": total / N_BLOCKS,
        "best_seconds_per_block": min(block_seconds),
        "traces_per_second": N_BLOCKS * BLOCK / total,
        "best_traces_per_second": BLOCK / min(block_seconds),
        "stages": profile.as_dict(),
    }


def test_fused_kernel_speedup(benchmark):
    acq = make_rig()
    n_samples = acq.default_n_samples()

    def plaintexts(index):
        return np.random.default_rng(1000 + index).integers(
            0, 256, size=(BLOCK, 16), dtype=np.uint8
        )

    kernel = get_kernel()

    def fused_block(aes, index, profile):
        return kernel.acquire(
            acq,
            aes,
            plaintexts(index),
            np.random.default_rng(index),
            n_samples,
            profile=profile,
        )

    def baseline_block(aes, index, profile):
        return baseline_acquire_block(
            acq, aes, plaintexts(index), np.random.default_rng(index), n_samples,
            profile,
        )

    base_out, base_times, base_profile = drive(acq, n_samples, baseline_block)
    fused_out, fused_times, fused_profile = drive(acq, n_samples, fused_block)

    # Same RNG streams, same physics: both paths are bit-identical.
    for (rb, cb), (rf, cf) in zip(base_out, fused_out):
        np.testing.assert_array_equal(rf, rb)
        np.testing.assert_array_equal(cf, cb)

    report = {
        "config": {
            "aes_clock_hz": 20e6,
            "sensor_clock_hz": 300e6,
            "block_traces": BLOCK,
            "n_blocks": N_BLOCKS,
            "n_samples": n_samples,
            "device": "xc7a35t",
        },
        "paths": {
            "baseline": path_report(base_times, base_profile),
            "fused": path_report(fused_times, fused_profile),
        },
        "speedup": {
            "fused_vs_baseline": min(base_times) / min(fused_times),
        },
    }
    merge_report(report)

    # The acceptance bar: >= 3x over the pre-PR pipeline on the default
    # campaign configuration.
    speedup = report["speedup"]["fused_vs_baseline"]
    assert speedup >= 3.0, (
        f"fused path is only {speedup:.2f}x the pre-PR baseline "
        f"({report['paths']['fused']['traces_per_second']:,.0f} vs "
        f"{report['paths']['baseline']['traces_per_second']:,.0f} traces/s)"
    )

    run_once(benchmark, lambda: drive(acq, n_samples, fused_block))
    benchmark.extra_info["fused_traces_per_s"] = round(
        report["paths"]["fused"]["traces_per_second"]
    )
    benchmark.extra_info["baseline_traces_per_s"] = round(
        report["paths"]["baseline"]["traces_per_second"]
    )
    benchmark.extra_info["speedup_vs_baseline"] = round(speedup, 2)
    benchmark.extra_info["report"] = str(OUTPUT.name)


def test_fanout_speedup(benchmark):
    """Fan-out at N=8 placements vs. eight independent single-sensor
    runs of the same block: bit-identical readouts/ciphertexts (the
    ``acquire_many`` contract) and the amortized shared AES+PDN pass
    must buy >= 2x.  This is the CI gate for the fan-out path."""
    acqs = MultiSensorAcquisition(
        common.placement_specs(tuple(common.CPA_PLACEMENTS))
    )
    n_sensors = len(acqs)
    n_samples = acqs.default_n_samples()
    for acq in acqs:
        acq.sensor.precompute_moments()
    aes = AES128(KEY)
    pts = np.random.default_rng(1000).integers(
        0, 256, size=(BLOCK, 16), dtype=np.uint8
    )

    def fanout_block(seed):
        return acqs.acquire_block_many(
            aes, pts, np.random.default_rng(seed), n_samples
        )

    def independent_blocks(seed):
        # The baseline this PR replaces: one full acquire per sensor,
        # each from the same entry RNG state (fresh generator per run).
        return [
            acqs.kernel.acquire(
                acq, aes, pts, np.random.default_rng(seed), n_samples
            )
            for acq in acqs
        ]

    # Warm-up doubles as the bit-identity check.
    for (rf, cf), (ri, ci) in zip(fanout_block(0), independent_blocks(0)):
        np.testing.assert_array_equal(rf, ri)
        np.testing.assert_array_equal(cf, ci)

    # Interleaved min-of-reps: the least load-sensitive estimator.
    fan_times, ind_times = [], []
    for rep in range(FANOUT_REPS):
        t0 = time.perf_counter()
        fanout_block(rep)
        t1 = time.perf_counter()
        independent_blocks(rep)
        t2 = time.perf_counter()
        fan_times.append(t1 - t0)
        ind_times.append(t2 - t1)

    speedup = min(ind_times) / min(fan_times)
    fanout_tps = n_sensors * BLOCK / min(fan_times)
    independent_tps = n_sensors * BLOCK / min(ind_times)
    merge_report(
        {
            "fanout": {
                "n_sensors": n_sensors,
                "block_traces": BLOCK,
                "reps": FANOUT_REPS,
                "best_seconds_per_block": min(fan_times),
                "independent_best_seconds": min(ind_times),
                "traces_per_second_per_sensor": fanout_tps,
                "independent_traces_per_second_per_sensor": independent_tps,
                "speedup_vs_independent": speedup,
            }
        }
    )

    # The CI gate: fan-out must amortize to >= 2x over N independent
    # runs at N=8 on the default campaign block.
    assert speedup >= 2.0, (
        f"fan-out at N={n_sensors} is only {speedup:.2f}x eight "
        f"independent runs ({fanout_tps:,.0f} vs {independent_tps:,.0f} "
        f"amortized traces/s per sensor)"
    )

    run_once(benchmark, lambda: fanout_block(FANOUT_REPS))
    benchmark.extra_info["n_sensors"] = n_sensors
    benchmark.extra_info["fanout_traces_per_s_per_sensor"] = round(fanout_tps)
    benchmark.extra_info["speedup_vs_independent"] = round(speedup, 2)
    benchmark.extra_info["report"] = str(OUTPUT.name)


def test_metrics_overhead(benchmark):
    """Live metrics are default-on; this is the bill for that.

    Runs the same streamed campaign with the registry enabled and
    disabled, interleaved min-of-reps, and gates the enabled path at
    <= 2% over the disabled one.  Curves must be bit-identical either
    way — observability can never touch the science.
    """
    from repro.experiments.table1_traces import streamed_placement_curves
    from repro.runtime import Engine
    from repro.telemetry.metrics import get_registry

    n_traces = 1024
    reps = 5 if not full_scale() else 8
    registry = get_registry()

    def campaign():
        engine = Engine(workers=1, shard_size=256)
        [(curve, _)] = streamed_placement_curves(
            engine,
            ["P6"],
            n_traces,
            512,
            "LeakyDSP",
            rng=np.random.SeedSequence(7).spawn(1)[0],
        )
        return [(p.n_traces, p.log2_lower, p.log2_upper) for p in curve.points]

    baseline_curve = campaign()  # warm-up (caches, BLAS threads)
    on_times, off_times = [], []
    try:
        for _ in range(reps):
            registry.enabled = True
            t0 = time.perf_counter()
            on_curve = campaign()
            t1 = time.perf_counter()
            registry.enabled = False
            off_curve = campaign()
            t2 = time.perf_counter()
            on_times.append(t1 - t0)
            off_times.append(t2 - t1)
            assert on_curve == off_curve == baseline_curve
    finally:
        registry.enabled = True

    overhead = min(on_times) / min(off_times) - 1.0
    merge_report(
        {
            "metrics_overhead": {
                "n_traces": n_traces,
                "reps": reps,
                "best_seconds_on": min(on_times),
                "best_seconds_off": min(off_times),
                "overhead_fraction": overhead,
            }
        }
    )

    # The CI gate: default-on metrics must cost under 2% of campaign
    # wall clock (min-of-reps, the least load-sensitive estimator).
    assert overhead <= 0.02, (
        f"metrics-on campaign is {overhead * 100:.2f}% slower than "
        f"metrics-off ({min(on_times):.3f}s vs {min(off_times):.3f}s)"
    )

    run_once(benchmark, campaign)
    benchmark.extra_info["metrics_overhead_pct"] = round(overhead * 100, 3)
    benchmark.extra_info["report"] = str(OUTPUT.name)
