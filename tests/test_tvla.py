"""Tests for TVLA leakage assessment."""

import numpy as np
import pytest

from repro.analysis.tvla import (
    TVLA_THRESHOLD,
    assess_aes_leakage,
    fixed_vs_random_t,
)
from repro.core.calibration import calibrate
from repro.core.leaky_dsp import LeakyDSP
from repro.errors import AttackError
from repro.fpga.placement import Pblock, Placer
from repro.pdn.coupling import CouplingModel
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec
from repro.victims.aes import AESHardwareModel

KEY = bytes(range(16))


class TestFixedVsRandom:
    def test_identical_distributions_quiet(self, rng):
        a = rng.normal(0, 1, (500, 20))
        b = rng.normal(0, 1, (500, 20))
        result = fixed_vs_random_t(a, b)
        assert not result.leaks
        assert result.max_abs_t < TVLA_THRESHOLD

    def test_shifted_sample_detected(self, rng):
        a = rng.normal(0, 1, (500, 20))
        b = rng.normal(0, 1, (500, 20))
        b[:, 7] += 1.0
        result = fixed_vs_random_t(a, b)
        assert result.leaks
        assert 7 in result.leaky_samples

    def test_constant_samples_tolerated(self):
        a = np.ones((10, 3))
        b = np.ones((10, 3))
        result = fixed_vs_random_t(a, b)
        assert not result.leaks

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(AttackError):
            fixed_vs_random_t(rng.normal(0, 1, (10, 5)), rng.normal(0, 1, (10, 6)))

    def test_too_few_traces_rejected(self, rng):
        with pytest.raises(AttackError):
            fixed_vs_random_t(rng.normal(0, 1, (1, 5)), rng.normal(0, 1, (10, 5)))


class TestAesAssessment:
    @pytest.fixture(scope="class")
    def acquisition(self, basys3_device):
        coupling = CouplingModel(basys3_device)
        placer = Placer(basys3_device)
        sensor = LeakyDSP(device=basys3_device, seed=7)
        sensor.place(
            placer,
            pblock=Pblock.from_region(basys3_device.region_by_name("X1Y0")),
        )
        calibrate(sensor, rng=0)
        hw = AESHardwareModel(ClockSpec(20e6), ClockSpec(300e6))
        return AcquisitionSpec(
            sensor=sensor, coupling=coupling, hw_model=hw, aes_position=(10.0, 25.0)
        ).build()

    def test_aes_core_leaks_through_sensor(self, acquisition):
        result = assess_aes_leakage(acquisition, KEY, n_traces_per_class=1500, rng=5)
        assert result.leaks
        # The leaky samples sit inside the encryption window, not the
        # idle lead-in.
        spc = acquisition.hw_model.samples_per_cycle
        assert result.leaky_samples.min() >= spc // 2

    def test_bad_fixed_plaintext_rejected(self, acquisition):
        with pytest.raises(AttackError):
            assess_aes_leakage(acquisition, KEY, fixed_plaintext=b"short", rng=0)

    def test_too_few_traces_rejected(self, acquisition):
        with pytest.raises(AttackError):
            assess_aes_leakage(acquisition, KEY, n_traces_per_class=1)
