"""Tests for the fused acquisition kernel layer (``repro.kernels``).

The load-bearing properties:

* the precomputed step-response basis is the reference filter's exact
  zero-state response (basis-vs-lfilter equivalence);
* the fused kernel and the reference oracle
  (:class:`tests.oracles.ReferenceAcquisitionKernel`) produce identical
  readouts and ciphertexts from the same RNG stream (differential
  tests, plus a hypothesis property over trace length, clock ratio and
  batch size);
* ``kernel=None`` resolves to the shared fused kernel, an injected
  instance is used as is, and nothing else is accepted;
* worker count and kernel choice commute with the engine's determinism
  guarantees;
* the profiling layer accumulates and merges stage costs correctly.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from repro.config import DEFAULT_CONSTANTS
from repro.core.calibration import calibrate
from repro.core.leaky_dsp import LeakyDSP
from repro.core.sensor import SamplingMethod, check_table_range
from repro.errors import ConfigurationError, SensorRangeError
from repro.experiments import common
from repro.fpga.placement import Pblock, Placer
from repro.kernels import (
    LEAD_IN_CYCLES,
    FusedAcquisitionKernel,
    StageProfile,
    get_kernel,
    step_response_basis,
    unit_boxcars,
)
from repro.kernels.basis import one_pole_lowpass
from repro.pdn.coupling import CouplingModel
from repro.runtime import Engine
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec, MultiSensorAcquisition
from repro.victims.aes import AES128, AESHardwareModel
from tests.oracles import KERNELS

KEY = bytes(range(16))


@pytest.fixture(scope="module")
def rig(basys3_device):
    """A placed, calibrated sensor plus the shared PDN surrogate."""
    coupling = CouplingModel(basys3_device)
    placer = Placer(basys3_device)
    sensor = LeakyDSP(device=basys3_device, seed=7)
    sensor.place(
        placer, pblock=Pblock.from_region(basys3_device.region_by_name("X1Y0"))
    )
    calibrate(sensor, rng=0)
    return sensor, coupling


def make_acquisition(rig, kernel, aes_freq=20e6, sensor_freq=300e6):
    """``kernel`` is ``"fused"``, ``"reference"`` or an instance."""
    kernel = KERNELS.get(kernel, kernel)
    sensor, coupling = rig
    hw = AESHardwareModel(ClockSpec(aes_freq), ClockSpec(sensor_freq))
    return AcquisitionSpec(
        sensor=sensor, coupling=coupling, hw_model=hw,
        aes_position=(10.0, 25.0), kernel=kernel,
    ).build()


# ----------------------------------------------------------------------
# Step-response basis
# ----------------------------------------------------------------------


def lfilter_basis(boxcars, pole):
    """The basis rows as ``scipy.signal.lfilter`` filters them."""
    return signal.lfilter([1.0 - pole], [1.0, -pole], boxcars, axis=-1)


def campaign_basis_shape():
    """The basis the fig5 and table1 campaigns build, at quick and paper
    scale alike: the scale changes trace counts and placements, while
    the basis depends only on the AES and sensor clocks."""
    hw = common.make_hw_model(common.AES_CLOCK)
    n_samples = hw.samples_per_block + 2 * hw.samples_per_cycle
    pole = float(np.exp(-hw.sensor_clock.period / DEFAULT_CONSTANTS.pdn_tau))
    return (
        AES128.CYCLES_PER_BLOCK, hw.samples_per_cycle, n_samples,
        LEAD_IN_CYCLES, pole,
    )


class TestStepResponseBasis:
    def test_boxcars_cover_cycles(self):
        box = unit_boxcars(3, 4, 20, lead_in_cycles=1)
        assert box.shape == (3, 20)
        assert box[0, 4:8].sum() == 4 and box[0].sum() == 4
        assert box[2, 12:16].sum() == 4

    def test_boxcars_clip_to_trace(self):
        box = unit_boxcars(3, 4, 10, lead_in_cycles=1)
        # Cycle 2 starts at sample 12, beyond the 10-sample trace.
        assert box[2].sum() == 0
        assert box[1, 8:10].sum() == 2

    def test_matches_reference_filter_exactly(self, rig):
        """droop(hd) == base + per_bit * (hd @ B), vs the sequential
        reference pipeline (current_waveform -> lfilter)."""
        _, coupling = rig
        hw = AESHardwareModel(ClockSpec(20e6), ClockSpec(300e6))
        dt = hw.sensor_clock.period
        n_samples = hw.samples_per_block + 2 * hw.samples_per_cycle
        rng = np.random.default_rng(3)
        hd = rng.integers(0, 128, size=(32, AES128.CYCLES_PER_BLOCK))

        currents = hw.current_waveform(hd, n_samples=n_samples)
        reference = coupling.filter_currents(currents, dt)

        pole = float(np.exp(-dt / coupling.constants.pdn_tau))
        basis = step_response_basis(
            AES128.CYCLES_PER_BLOCK,
            hw.samples_per_cycle,
            n_samples,
            LEAD_IN_CYCLES,
            pole,
        )
        fused = (
            hw.constants.aes_base_current
            + hw.constants.aes_current_per_bit * (hd.astype(np.float64) @ basis.matrix)
        )
        # Exact in real arithmetic; ULP-level float differences from the
        # matmul's summation order.
        np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)

    def test_campaign_basis_is_lfilter_bit_for_bit(self):
        n_cycles, spc, n_samples, lead_in, pole = campaign_basis_shape()
        assert (n_cycles, spc, n_samples, lead_in) == (11, 15, 195, 1)
        basis = step_response_basis(n_cycles, spc, n_samples, lead_in, pole)
        boxcars = unit_boxcars(n_cycles, spc, n_samples, lead_in)
        np.testing.assert_array_equal(
            basis.matrix, lfilter_basis(boxcars, pole)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        pole=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        n_cycles=st.integers(1, 12),
        samples_per_cycle=st.integers(1, 24),
        n_samples=st.integers(1, 400),
        lead_in=st.integers(0, 2),
    )
    def test_recurrence_is_lfilter_bit_for_bit(
        self, pole, n_cycles, samples_per_cycle, n_samples, lead_in
    ):
        boxcars = unit_boxcars(n_cycles, samples_per_cycle, n_samples, lead_in)
        expected = lfilter_basis(boxcars, pole)
        np.testing.assert_array_equal(one_pole_lowpass(boxcars, pole), expected)
        basis = step_response_basis(
            n_cycles, samples_per_cycle, n_samples, lead_in, pole
        )
        np.testing.assert_array_equal(basis.matrix, expected)

    def test_cache_returns_same_object(self):
        a = step_response_basis(11, 15, 195, 1, 0.7)
        b = step_response_basis(11, 15, 195, 1, 0.7)
        assert a is b
        c = step_response_basis(11, 15, 195, 1, 0.8)
        assert c is not a

    def test_matrix_read_only(self):
        basis = step_response_basis(11, 15, 195, 1, 0.7)
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 1.0
        scaled = basis.scaled(2.0)
        scaled[0, 0] = 5.0  # scaled copies are private and writable

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_cycles=0, samples_per_cycle=1, n_samples=1, lead_in_cycles=0, pole=0.5),
            dict(n_cycles=1, samples_per_cycle=0, n_samples=1, lead_in_cycles=0, pole=0.5),
            dict(n_cycles=1, samples_per_cycle=1, n_samples=0, lead_in_cycles=0, pole=0.5),
            dict(n_cycles=1, samples_per_cycle=1, n_samples=1, lead_in_cycles=-1, pole=0.5),
            dict(n_cycles=1, samples_per_cycle=1, n_samples=1, lead_in_cycles=0, pole=1.0),
            dict(n_cycles=1, samples_per_cycle=1, n_samples=1, lead_in_cycles=0, pole=-0.1),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            step_response_basis(**kwargs)


# ----------------------------------------------------------------------
# Filter-design cache (CouplingModel)
# ----------------------------------------------------------------------


class TestFilterDesignCache:
    def test_design_cached_per_dt(self, rig):
        _, coupling = rig
        d1 = coupling.filter_design(1 / 300e6)
        d2 = coupling.filter_design(1 / 300e6)
        assert d1 is d2
        d3 = coupling.filter_design(1 / 100e6)
        assert d3 is not d1

    def test_design_matches_lfilter_construction(self, rig):
        _, coupling = rig
        dt = 1 / 300e6
        b, den, zi = coupling.filter_design(dt)
        pole = float(np.exp(-dt / coupling.constants.pdn_tau))
        assert b == [1.0 - pole] and den == [1.0, -pole]
        np.testing.assert_allclose(zi, signal.lfilter_zi(b, den))

    def test_filter_currents_unchanged_by_cache(self, rig):
        _, coupling = rig
        dt = 1 / 300e6
        currents = np.linspace(0.0, 1e-2, 64).reshape(4, 16)
        out1 = coupling.filter_currents(currents, dt)
        out2 = coupling.filter_currents(currents, dt)  # cached design
        np.testing.assert_array_equal(out1, out2)


# ----------------------------------------------------------------------
# Kernel resolution
# ----------------------------------------------------------------------


class TestKernelRegistry:
    def test_get_none_resolves_default(self, rig):
        assert isinstance(get_kernel(None), FusedAcquisitionKernel)
        assert get_kernel(None) is get_kernel(None)
        assert make_acquisition(rig, None).kernel is get_kernel(None)

    def test_instance_passthrough(self, rig):
        kernel = FusedAcquisitionKernel()
        assert get_kernel(kernel) is kernel
        assert make_acquisition(rig, kernel).kernel is kernel

    def test_unknown_kernel_rejected(self, rig):
        # Names are not a selection mechanism: even the production
        # kernel's own name is refused.
        for name in ("vectorized", "fused", "reference"):
            with pytest.raises(ConfigurationError, match="AcquisitionKernel"):
                get_kernel(name)
        spec = make_acquisition(rig, None).spec
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, kernel="fused").build()

    def test_fused_kernel_pickles_without_caches(self, rig):
        acq = make_acquisition(rig, "fused")
        aes = AES128(KEY)
        pts = np.random.default_rng(0).integers(0, 256, (8, 16), dtype=np.uint8)
        acq.acquire_block(aes, pts, np.random.default_rng(1), 60)
        assert acq.kernel._weights  # cache warm
        clone = pickle.loads(pickle.dumps(acq.kernel))
        assert clone._weights == {} and clone._scratch.arrays == {}
        # And the clone still acquires correctly.
        acq2 = make_acquisition(rig, clone)
        r1, _ = acq.acquire_block(aes, pts, np.random.default_rng(1), 60)
        r2, _ = acq2.acquire_block(aes, pts, np.random.default_rng(1), 60)
        np.testing.assert_array_equal(r1, r2)


# ----------------------------------------------------------------------
# Fused vs reference differential
# ----------------------------------------------------------------------


class TestFusedMatchesReference:
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_identical_readouts_and_ciphertexts(self, rig, seed):
        """Same RNG stream, same readouts: the fused rewrite changes
        summation order (ULP-level voltage differences) but no rounded
        integer readout on these fixed seeds."""
        acq_f = make_acquisition(rig, "fused")
        acq_r = make_acquisition(rig, "reference")
        aes = AES128(KEY)
        n_samples = acq_f.default_n_samples()
        pts = np.random.default_rng(seed).integers(0, 256, (512, 16), dtype=np.uint8)
        r_f, c_f = acq_f.acquire_block(aes, pts, np.random.default_rng(seed), n_samples)
        r_r, c_r = acq_r.acquire_block(aes, pts, np.random.default_rng(seed), n_samples)
        np.testing.assert_array_equal(r_f, r_r)
        np.testing.assert_array_equal(c_f, c_r)
        assert r_f.dtype == np.int16 and c_f.dtype == np.uint8

    @settings(max_examples=20, deadline=None)
    @given(
        n_samples=st.integers(min_value=1, max_value=240),
        aes_freq=st.sampled_from([10e6, 20e6, 50e6, 100e6]),
        m=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_equivalence_property(self, rig, n_samples, aes_freq, m, seed):
        """Fused == reference across trace lengths, clock ratios and
        batch sizes, not just the default configuration."""
        acq_f = make_acquisition(rig, "fused", aes_freq=aes_freq)
        acq_r = make_acquisition(rig, "reference", aes_freq=aes_freq)
        aes = AES128(KEY)
        pts = np.random.default_rng(seed).integers(0, 256, (m, 16), dtype=np.uint8)
        r_f, c_f = acq_f.acquire_block(
            aes, pts, np.random.default_rng(seed), n_samples
        )
        r_r, c_r = acq_r.acquire_block(
            aes, pts, np.random.default_rng(seed), n_samples
        )
        np.testing.assert_array_equal(c_f, c_r)
        np.testing.assert_array_equal(r_f, r_r)

    def test_drift_noise_falls_back_to_model_sampler(self, rig):
        """With drift enabled the fast white-noise path is bypassed,
        and the fused kernel still matches the reference stream."""
        from repro.pdn.noise import NoiseModel

        sensor, coupling = rig
        hw = AESHardwareModel(ClockSpec(20e6), ClockSpec(300e6))
        noise = NoiseModel(white_rms=1.6e-3, drift_rms=8e-6)
        acq_f = AcquisitionSpec(
            sensor=sensor, coupling=coupling, hw_model=hw,
            aes_position=(10.0, 25.0), noise=noise,
        ).build()
        acq_r = AcquisitionSpec(
            sensor=sensor, coupling=coupling, hw_model=hw,
            aes_position=(10.0, 25.0), noise=noise, kernel=KERNELS["reference"],
        ).build()
        aes = AES128(KEY)
        n_samples = acq_f.default_n_samples()
        pts = np.random.default_rng(5).integers(0, 256, (64, 16), dtype=np.uint8)
        r_f, _ = acq_f.acquire_block(aes, pts, np.random.default_rng(5), n_samples)
        r_r, _ = acq_r.acquire_block(aes, pts, np.random.default_rng(5), n_samples)
        np.testing.assert_array_equal(r_f, r_r)

    def test_engine_collect_identical_across_kernels_and_workers(self, rig):
        """The full campaign surface: fused/reference x workers 1/2/4
        all produce the same TraceSet for a fixed seed."""
        reference = None
        for kernel in ("reference", "fused"):
            acq = make_acquisition(rig, kernel)
            for workers in (1, 2, 4):
                ts = Engine(workers=workers, shard_size=96).collect(
                    acq, 300, key=KEY, seed=11
                )
                if reference is None:
                    reference = ts
                else:
                    np.testing.assert_array_equal(ts.traces, reference.traces)
                    np.testing.assert_array_equal(
                        ts.ciphertexts, reference.ciphertexts
                    )

    def test_streamed_chunk_sizes_identical(self, rig):
        """Fused streaming accumulates bit-identically however the
        checkpoint grid cuts the shards into accumulator chunks, at any
        worker count."""
        from functools import partial

        from repro.attacks.cpa import CPAAttack

        acq = make_acquisition(rig, "fused")
        n_samples = acq.default_n_samples()
        results = []
        for step, workers in ((None, 1), (64, 2), (17, 1)):
            attack = Engine(workers=workers, shard_size=128).stream_attack(
                acq,
                384,
                key=KEY,
                consumer_factory=partial(CPAAttack, n_samples),
                seed=4,
                checkpoints=range(step, 385, step) if step else (),
            )
            results.append(attack.correlations())
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_metadata_records_kernel(self, rig):
        assert make_acquisition(rig, "fused").trace_metadata(KEY)["kernel"] == "fused"
        assert (
            make_acquisition(rig, "reference").trace_metadata(KEY)["kernel"]
            == "reference"
        )


# ----------------------------------------------------------------------
# Sensor range guard
# ----------------------------------------------------------------------


class TestSensorRangeGuard:
    def test_below_floor_raises(self, rig):
        sensor, _ = rig
        grid = sensor._moments_table()[0]
        with pytest.raises(SensorRangeError, match="operating floor"):
            check_table_range(sensor, np.array([grid[0] - 0.01]), grid)

    def test_above_ceiling_clamps(self, rig):
        """High-side excursions are genuine saturation: no error, and
        a voltage above the table's ceiling reads exactly like the
        ceiling itself (np.interp's benign top-edge clamp)."""
        sensor, _ = rig
        grid = sensor._moments_table()[0]
        check_table_range(sensor, np.array([grid[-1] + 0.05]), grid)
        above = sensor.sample_readouts(
            np.full(64, grid[-1] + 0.05),
            rng=np.random.default_rng(0),
            method=SamplingMethod.NORMAL,
        )
        at_edge = sensor.sample_readouts(
            np.full(64, grid[-1]),
            rng=np.random.default_rng(0),
            method=SamplingMethod.NORMAL,
        )
        np.testing.assert_array_equal(above, at_edge)

    def test_empty_input_is_fine(self, rig):
        sensor, _ = rig
        grid = sensor._moments_table()[0]
        check_table_range(sensor, np.array([]), grid)

    @pytest.mark.parametrize("kernel", ["fused", "reference"])
    def test_acquisition_guard_fires_on_deep_droop(self, rig, kernel):
        """An out-of-model operating point (enormous per-bit current)
        raises instead of silently flattening the droop — on both
        kernels."""
        sensor, coupling = rig
        constants = dataclasses.replace(
            DEFAULT_CONSTANTS, aes_current_per_bit=0.5, aes_base_current=0.1
        )
        hw = AESHardwareModel(
            ClockSpec(20e6), ClockSpec(300e6), constants=constants
        )
        acq = AcquisitionSpec(
            sensor=sensor, coupling=coupling, hw_model=hw,
            aes_position=(10.0, 25.0), kernel=KERNELS[kernel],
        ).build()
        aes = AES128(KEY)
        pts = np.random.default_rng(0).integers(0, 256, (8, 16), dtype=np.uint8)
        with pytest.raises(SensorRangeError) as solo:
            acq.acquire_block(
                aes, pts, np.random.default_rng(0), acq.default_n_samples()
            )
        # A fan-out of one (the fused kernel's shared pass) raises the
        # same error.
        with pytest.raises(SensorRangeError) as fanned:
            MultiSensorAcquisition([acq]).acquire_block_many(
                aes, pts, np.random.default_rng(0), acq.default_n_samples()
            )
        assert str(fanned.value) == str(solo.value)


# ----------------------------------------------------------------------
# Stage profiling
# ----------------------------------------------------------------------


class TestStageProfile:
    def test_stage_context_accumulates(self):
        profile = StageProfile()
        with profile.stage("aes", items=10) as acct:
            acct.account(np.zeros(100, dtype=np.float64))
        with profile.stage("aes", items=5):
            pass
        stats = profile.stages["aes"]
        assert stats.calls == 2 and stats.items == 15
        assert stats.nbytes == 800
        assert stats.seconds > 0
        assert stats.items_per_second > 0

    def test_merge_is_commutative_fold(self):
        a, b = StageProfile(), StageProfile()
        a.add("aes", 1.0, nbytes=10, items=2)
        a.add("pdn", 0.5, items=1)
        b.add("aes", 2.0, nbytes=30, items=3)
        b.add("sensor", 0.25)
        a.merge(b)
        assert a.stage_seconds() == {"aes": 3.0, "pdn": 0.5, "sensor": 0.25}
        assert a.stage_nbytes() == {"aes": 40, "pdn": 0, "sensor": 0}
        assert a.stages["aes"].items == 5
        assert sum(a.stage_seconds().values()) == pytest.approx(3.75)

    def test_as_dict_and_summary(self):
        profile = StageProfile()
        profile.add("sensor", 2.0, nbytes=2_000_000, items=1000)
        d = profile.as_dict()
        assert d["sensor"]["items_per_second"] == pytest.approx(500.0)
        text = profile.summary()
        assert "sensor" in text and "2.000s" in text and "/s" in text
        assert StageProfile().summary() == "no stages recorded"

    def test_exception_still_records_stage(self):
        profile = StageProfile()
        with pytest.raises(RuntimeError):
            with profile.stage("pdn"):
                raise RuntimeError("boom")
        assert profile.stages["pdn"].calls == 1

    def test_engine_metrics_carry_stage_bytes(self, rig):
        acq = make_acquisition(rig, "fused")
        engine = Engine(workers=1, shard_size=64)
        engine.collect(acq, 128, key=KEY, seed=0)
        metrics = engine.last_metrics
        assert {"aes", "pdn", "sensor"} <= set(metrics.stage_totals())
        nbytes = metrics.stage_nbytes_totals()
        assert nbytes["sensor"] > 0
        rates = metrics.stage_items_per_second()
        assert all(v > 0 for v in rates.values())
        shard = metrics.shards[0]
        assert "aes" in shard.summary() and "items" in shard.summary()

    def test_progress_detail_carries_shard_summary(self, rig):
        acq = make_acquisition(rig, "fused")
        details = []
        engine = Engine(
            workers=1, shard_size=64, progress=lambda ev: details.append(ev.detail)
        )
        engine.collect(acq, 128, key=KEY, seed=0)
        assert details and all("shard" in d for d in details)
