"""Tests for trace storage and the acquisition harnesses."""

import numpy as np
import pytest

from repro.core.leaky_dsp import LeakyDSP
from repro.core.calibration import calibrate
from repro.errors import AcquisitionError, ConfigurationError
from repro.fpga.placement import Pblock, Placer
from repro.pdn.coupling import CouplingModel
from repro.pdn.noise import NoiseModel
from repro.runtime import Engine
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec
from repro.traces.store import TraceSet
from repro.victims.aes import AES128, AESHardwareModel
from repro.victims.power_virus import PowerVirusBank

KEY = bytes(range(16))


def _dummy_set(n=10, samples=5, key=KEY):
    rng = np.random.default_rng(0)
    return TraceSet(
        traces=rng.integers(0, 48, (n, samples)).astype(np.int16),
        plaintexts=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        key=np.frombuffer(key, dtype=np.uint8),
    )


class TestTraceSet:
    def test_len_and_samples(self):
        ts = _dummy_set(7, 9)
        assert len(ts) == 7
        assert ts.n_samples == 9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AcquisitionError):
            TraceSet(
                traces=np.zeros((5, 4)),
                plaintexts=np.zeros((4, 16), dtype=np.uint8),
                ciphertexts=np.zeros((5, 16), dtype=np.uint8),
                key=np.zeros(16, dtype=np.uint8),
            )

    def test_bad_key_rejected(self):
        with pytest.raises(AcquisitionError):
            TraceSet(
                traces=np.zeros((2, 4)),
                plaintexts=np.zeros((2, 16), dtype=np.uint8),
                ciphertexts=np.zeros((2, 16), dtype=np.uint8),
                key=np.zeros(15, dtype=np.uint8),
            )

    def test_head(self):
        ts = _dummy_set(10)
        head = ts.head(4)
        assert len(head) == 4
        np.testing.assert_array_equal(head.traces, ts.traces[:4])

    def test_head_bounds(self):
        with pytest.raises(AcquisitionError):
            _dummy_set(5).head(6)
        with pytest.raises(AcquisitionError):
            _dummy_set(5).head(0)

    def test_extend(self):
        a, b = _dummy_set(4), _dummy_set(6)
        merged = a.extend(b)
        assert len(merged) == 10
        np.testing.assert_array_equal(merged.traces[4:], b.traces)

    def test_extend_key_mismatch_rejected(self):
        a = _dummy_set(4)
        b = _dummy_set(4, key=bytes(range(1, 17)))
        with pytest.raises(AcquisitionError):
            a.extend(b)

    def test_extend_length_mismatch_rejected(self):
        with pytest.raises(AcquisitionError):
            _dummy_set(4, samples=5).extend(_dummy_set(4, samples=6))

    def test_save_load_roundtrip(self, tmp_path):
        ts = _dummy_set(8)
        ts.metadata["placement"] = "P6"
        path = tmp_path / "traces.npz"
        ts.save(path)
        restored = TraceSet.load(path)
        np.testing.assert_array_equal(restored.traces, ts.traces)
        np.testing.assert_array_equal(restored.key, ts.key)
        assert restored.metadata["placement"] == "P6"


@pytest.fixture(scope="module")
def acquisition(basys3_device):
    coupling = CouplingModel(basys3_device)
    placer = Placer(basys3_device)
    sensor = LeakyDSP(device=basys3_device, seed=7)
    sensor.place(
        placer, pblock=Pblock.from_region(basys3_device.region_by_name("X1Y0"))
    )
    calibrate(sensor, rng=0)
    hw = AESHardwareModel(ClockSpec(20e6), ClockSpec(300e6))
    return AcquisitionSpec(
        sensor=sensor, coupling=coupling, hw_model=hw, aes_position=(10.0, 25.0)
    ).build()


def _collect(acquisition, n_traces, seed, shard_size=4096):
    return Engine(workers=1, shard_size=shard_size).collect(
        acquisition, n_traces, key=KEY, seed=seed
    )


class TestAESAcquisition:
    def test_collect_shapes(self, acquisition):
        ts = _collect(acquisition, 50, seed=1)
        assert ts.traces.shape == (50, acquisition.hw_model.samples_per_block + 30)
        assert ts.plaintexts.shape == (50, 16)

    def test_ciphertexts_are_correct(self, acquisition):
        ts = _collect(acquisition, 20, seed=2)
        aes = AES128(KEY)
        np.testing.assert_array_equal(aes.encrypt_blocks(ts.plaintexts), ts.ciphertexts)

    def test_metadata_populated(self, acquisition):
        ts = _collect(acquisition, 5, seed=3)
        assert ts.metadata["aes_frequency_hz"] == 20e6
        assert ts.metadata["sensor_type"] == "LeakyDSP"

    def test_reproducible_for_same_chunking(self, acquisition):
        a = _collect(acquisition, 30, seed=4, shard_size=7)
        b = _collect(acquisition, 30, seed=4, shard_size=7)
        np.testing.assert_array_equal(a.plaintexts, b.plaintexts)
        np.testing.assert_array_equal(a.traces, b.traces)

    def test_chunk_size_preserves_validity(self, acquisition):
        """Different shard sizes draw differently from the seed, but
        every shard plan yields an internally consistent campaign."""
        aes = AES128(KEY)
        for shard_size in (7, 30):
            ts = _collect(acquisition, 30, seed=4, shard_size=shard_size)
            np.testing.assert_array_equal(
                aes.encrypt_blocks(ts.plaintexts), ts.ciphertexts
            )

    def test_nonpositive_count_rejected(self, acquisition):
        with pytest.raises(ConfigurationError):
            _collect(acquisition, 0, seed=0)

    def test_key_is_keyword_only(self, acquisition):
        with pytest.raises(TypeError):
            Engine(workers=1).collect(acquisition, 10, KEY)

    def test_traces_sit_in_sensor_range(self, acquisition):
        ts = _collect(acquisition, 50, seed=5)
        assert ts.traces.min() >= 0
        assert ts.traces.max() <= 48

    def test_encryption_visible_in_traces(self, acquisition):
        """Mean readout during the rounds is lower than during the
        lead-in (the core draws current while encrypting)."""
        ts = _collect(acquisition, 300, seed=6)
        spc = acquisition.hw_model.samples_per_cycle
        lead = ts.traces[:, : spc // 2].mean()
        busy = ts.traces[:, 5 * spc : 10 * spc].mean()
        assert busy < lead


class TestCharacterize:
    @pytest.fixture(scope="class")
    def bench(self, basys3_device):
        coupling = CouplingModel(basys3_device)
        placer = Placer(basys3_device)
        virus = PowerVirusBank(basys3_device, 800, 8)
        virus.place(placer, [Pblock("v", 0, 0, 41, 59)])
        sensor = LeakyDSP(device=basys3_device, seed=7)
        sensor.place(
            placer,
            pblock=Pblock.from_region(basys3_device.region_by_name("X1Y0")),
        )
        calibrate(sensor, rng=0)
        return sensor, coupling, virus

    def test_shape(self, bench):
        sensor, coupling, virus = bench
        r = Engine().characterize(sensor, coupling, virus, 4, 100, seed=0)
        assert r.shape == (100,)

    def test_activity_lowers_readout(self, bench):
        sensor, coupling, virus = bench
        idle = Engine().characterize(sensor, coupling, virus, 0, 500, seed=1)
        busy = Engine().characterize(sensor, coupling, virus, 8, 500, seed=2)
        assert busy.mean() < idle.mean()

    def test_bad_group_count_rejected(self, bench):
        sensor, coupling, virus = bench
        with pytest.raises(AcquisitionError):
            Engine().characterize(sensor, coupling, virus, 9, 10)

    def test_quiet_noise_deterministic_mean(self, bench):
        sensor, coupling, virus = bench
        r = Engine().characterize(
            sensor, coupling, virus, 2, 400, noise=NoiseModel.quiet(), seed=3
        )
        expected = sensor.expected_readout(
            np.array([sensor.constants.v_nominal
                      - virus.droop_at(coupling, sensor.position,
                                       np.array([1, 1, 0, 0, 0, 0, 0, 0]))])
        )[0]
        assert r.mean() == pytest.approx(expected, abs=0.5)
