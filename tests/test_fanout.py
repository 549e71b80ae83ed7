"""Tests for the fan-out acquisition API.

The load-bearing contract: fanning one AES+PDN pass out to N sensors
is purely a cost optimization — every per-sensor result is
bit-identical to the N independent single-sensor runs it replaces, for
the fused kernel and the reference oracle, at every worker count and
chunking.  Alongside the differential tests this module covers the
:class:`AcquisitionSpec` construction path, the
:class:`MultiSensorAcquisition` validation rules, the engine's fan-out
campaign methods and the per-sensor sub-block cache accounting.
"""

import dataclasses
import importlib
import mmap
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.cpa import CPAAttack
from repro.attacks.metrics import streamed_rank_curves
from repro.errors import AcquisitionError, ConfigurationError
from repro.kernels import FusedAcquisitionKernel, get_kernel
from repro.kernels import fanout
from repro.pdn.noise import NoiseModel
from repro.runtime import Engine, scheduler
from repro.traces.acquisition import (
    AESTraceAcquisition,
    MultiSensorAcquisition,
)
from repro.traces.blockstore import BlockStore, peek_block_meta
from repro.experiments import common
from repro.victims.aes import AES128
from tests.oracles import KERNELS

KEY = bytes(range(16))
PLACEMENTS = ("P1", "P2", "P6")
N_TRACES = 600
SHARD = 256


@pytest.fixture(scope="module")
def specs():
    """Three placement specs sharing one hardware/noise configuration
    and the default kernel instance."""
    return common.placement_specs(PLACEMENTS)


@pytest.fixture(scope="module")
def multi(specs):
    return MultiSensorAcquisition(specs)


def solo_harnesses(specs):
    """Independent single-sensor harnesses over the same sensors."""
    return [spec.build() for spec in specs]


real_sample_sensor = fanout.sample_sensor


def fresh_rng(seed=0):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# AcquisitionSpec
# ----------------------------------------------------------------------


class TestAcquisitionSpec:
    def test_spec_build_no_warning(self, specs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            acq = specs[0].build()
            also = AESTraceAcquisition(spec=specs[0])
        assert acq.sensor is specs[0].sensor
        assert also.sensor is specs[0].sensor
        assert acq.kernel is get_kernel(None)

    def test_positional_construction_rejected(self, specs):
        spec = specs[0]
        with pytest.raises(TypeError, match="positional"):
            AESTraceAcquisition(
                spec.sensor, spec.coupling, spec.hw_model, spec.aes_position
            )

    def test_spec_plus_args_rejected(self, specs):
        spec = specs[0]
        with pytest.raises(TypeError, match="positional"):
            AESTraceAcquisition(spec.sensor, spec=spec)
        with pytest.raises(TypeError, match="unexpected keyword"):
            AESTraceAcquisition(spec=spec, kernel=None)

    def test_spec_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="AcquisitionSpec"):
            AESTraceAcquisition(spec="not a spec")

    def test_spec_property_is_normalized(self, specs):
        acq = specs[0].build()
        normalized = acq.spec
        assert normalized.noise is acq.noise
        assert normalized.kernel is acq.kernel
        rebuilt = normalized.build()
        assert rebuilt.kernel is acq.kernel
        assert rebuilt.noise is acq.noise


# ----------------------------------------------------------------------
# MultiSensorAcquisition construction and validation
# ----------------------------------------------------------------------


class TestMultiSensorValidation:
    def test_container_protocol(self, multi, specs):
        assert len(multi) == len(specs)
        assert [a.sensor for a in multi] == [s.sensor for s in specs]
        assert multi[1].sensor is specs[1].sensor

    def test_accepts_mixed_specs_and_harnesses(self, specs):
        msa = MultiSensorAcquisition([specs[0], specs[1].build()])
        assert len(msa) == 2
        assert msa.kernel is get_kernel(None)

    def test_empty_rejected(self):
        with pytest.raises(AcquisitionError, match="at least one"):
            MultiSensorAcquisition([])

    def test_bad_entry_type_rejected(self, specs):
        with pytest.raises(AcquisitionError, match="AcquisitionSpec"):
            MultiSensorAcquisition([specs[0], "P6"])

    def test_hw_model_mismatch_rejected(self, specs):
        other = common.placement_spec("P2", aes_clock=common.ClockSpec(50e6))
        with pytest.raises(AcquisitionError, match="hardware-model"):
            MultiSensorAcquisition([specs[0], other])

    def test_noise_mismatch_rejected(self, specs):
        loud = dataclasses.replace(
            specs[1], noise=NoiseModel(white_rms=0.5, drift_rms=0.0)
        )
        with pytest.raises(AcquisitionError, match="noise-model"):
            MultiSensorAcquisition([specs[0], loud])

    def test_kernel_instance_mismatch_rejected(self, specs):
        private = dataclasses.replace(specs[1], kernel=FusedAcquisitionKernel())
        with pytest.raises(AcquisitionError, match="kernel instance"):
            MultiSensorAcquisition([specs[0], private])

    def test_cache_tokens_match_standalone(self, multi, specs):
        tokens = multi.cache_tokens()
        assert tokens == [s.build().cache_token() for s in specs]


# ----------------------------------------------------------------------
# Kernel-level differential: acquire_many == N independent acquires
# ----------------------------------------------------------------------


def with_kernel(specs, name):
    return [dataclasses.replace(spec, kernel=KERNELS[name]) for spec in specs]


class TestAcquireMany:
    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_bit_identical_to_independent(self, specs, kernel_name):
        msa = MultiSensorAcquisition(with_kernel(specs, kernel_name))
        n_samples = msa.default_n_samples()
        aes = AES128(KEY)
        pts = fresh_rng(11).integers(0, 256, size=(96, 16), dtype=np.uint8)

        results = msa.acquire_block_many(aes, pts, fresh_rng(5), n_samples)
        for harness, (readouts, cts) in zip(msa, results):
            solo_r, solo_c = msa.kernel.acquire(
                harness, aes, pts, fresh_rng(5), n_samples
            )
            np.testing.assert_array_equal(readouts, solo_r)
            np.testing.assert_array_equal(cts, solo_c)

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_rng_end_state_matches_one_acquire(self, specs, kernel_name):
        msa = MultiSensorAcquisition(with_kernel(specs, kernel_name))
        n_samples = msa.default_n_samples()
        aes = AES128(KEY)
        pts = fresh_rng(11).integers(0, 256, size=(64, 16), dtype=np.uint8)

        rng_many = fresh_rng(5)
        msa.acquire_block_many(aes, pts, rng_many, n_samples)
        rng_one = fresh_rng(5)
        msa.kernel.acquire(msa[0], aes, pts, rng_one, n_samples)
        assert rng_many.bit_generator.state == rng_one.bit_generator.state

    @pytest.mark.parametrize("kernel_name", sorted(KERNELS))
    def test_single_acquisition_matches_acquire(
        self, specs, kernel_name, monkeypatch
    ):
        # N=1 takes the fused kernel's shared pass, not a per-sensor
        # replay of acquire.
        (spec,) = with_kernel(specs[:1], kernel_name)
        msa = MultiSensorAcquisition([spec])
        n_samples = msa.default_n_samples()
        aes = AES128(KEY)
        pts = fresh_rng(11).integers(0, 256, size=(96, 16), dtype=np.uint8)
        passes = []
        monkeypatch.setattr(
            fanout, "sample_sensor",
            lambda *args: passes.append(None) or real_sample_sensor(*args),
        )

        rng_many, rng_one = fresh_rng(5), fresh_rng(5)
        ((readouts, cts),) = msa.acquire_block_many(aes, pts, rng_many, n_samples)
        assert len(passes) == (kernel_name == "fused")
        solo_r, solo_c = msa.kernel.acquire(msa[0], aes, pts, rng_one, n_samples)
        np.testing.assert_array_equal(readouts, solo_r)
        np.testing.assert_array_equal(cts, solo_c)
        assert rng_many.bit_generator.state == rng_one.bit_generator.state

    def test_skip_yields_none_and_preserves_rest(self, multi):
        n_samples = multi.default_n_samples()
        aes = AES128(KEY)
        pts = fresh_rng(11).integers(0, 256, size=(64, 16), dtype=np.uint8)

        full = multi.acquire_block_many(aes, pts, fresh_rng(5), n_samples)
        skipped = multi.acquire_block_many(
            aes, pts, fresh_rng(5), n_samples, skip={1}
        )
        assert skipped[1] is None
        for index in (0, 2):
            np.testing.assert_array_equal(skipped[index][0], full[index][0])
            np.testing.assert_array_equal(skipped[index][1], full[index][1])

    def test_numpy_fallback_bit_identical(self, multi, monkeypatch):
        """Force the tiled numpy sampler and re-check the contract —
        the C inner loop must be an invisible optimization."""
        n_samples = multi.default_n_samples()
        aes = AES128(KEY)
        pts = fresh_rng(11).integers(0, 256, size=(96, 16), dtype=np.uint8)

        with_c = multi.acquire_block_many(aes, pts, fresh_rng(5), n_samples)
        monkeypatch.setattr(fanout, "_get_csampler", lambda: None)
        without_c = multi.acquire_block_many(aes, pts, fresh_rng(5), n_samples)
        for got, expected in zip(without_c, with_c):
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1], expected[1])

    @settings(max_examples=10)
    @given(indices=st.lists(st.integers(0, 2), min_size=1, max_size=4))
    def test_any_subset_fans_out_identically(self, specs, indices):
        """Property: any (ordered, possibly repeating) selection of
        sensors fans out bit-identically to independent runs."""
        pool = solo_harnesses(specs)
        chosen = [pool[i] for i in indices]
        kernel = chosen[0].kernel
        n_samples = chosen[0].default_n_samples()
        aes = AES128(KEY)
        pts = fresh_rng(11).integers(0, 256, size=(48, 16), dtype=np.uint8)

        results = kernel.acquire_many(chosen, aes, pts, fresh_rng(5), n_samples)
        for harness, (readouts, cts) in zip(chosen, results):
            solo_r, solo_c = kernel.acquire(
                harness, aes, pts, fresh_rng(5), n_samples
            )
            np.testing.assert_array_equal(readouts, solo_r)
            np.testing.assert_array_equal(cts, solo_c)


# ----------------------------------------------------------------------
# Serial fan-out collection
# ----------------------------------------------------------------------


class TestSerialCollect:
    def test_shared_plaintext_arrays(self, multi):
        trace_sets = Engine(workers=1, shard_size=64).collect_many(
            multi, 120, key=KEY, seed=9
        )
        assert all(ts.plaintexts is trace_sets[0].plaintexts for ts in trace_sets)
        assert all(ts.ciphertexts is trace_sets[0].ciphertexts for ts in trace_sets)


# ----------------------------------------------------------------------
# Engine fan-out campaigns
# ----------------------------------------------------------------------


class TestEngineFanout:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_collect_many_matches_collect(self, multi, specs, workers):
        engine = Engine(workers=workers, shard_size=SHARD)
        fanned = engine.collect_many(multi, N_TRACES, key=KEY, seed=5)
        for spec, ts in zip(specs, fanned):
            [solo] = Engine(workers=1, shard_size=SHARD).collect_many(
                [spec.build()], N_TRACES, key=KEY, seed=5
            )
            np.testing.assert_array_equal(ts.traces, solo.traces)
            np.testing.assert_array_equal(ts.plaintexts, solo.plaintexts)
            np.testing.assert_array_equal(ts.ciphertexts, solo.ciphertexts)

    def test_collect_many_accepts_plain_sequence(self, specs):
        engine = Engine(workers=1, shard_size=SHARD)
        fanned = engine.collect_many(list(specs), 200, key=KEY, seed=5)
        assert len(fanned) == len(specs)
        assert engine.last_metrics.kind == "collect"  # one name at any N

    @pytest.mark.parametrize("workers,step", [(1, None), (2, 128)])
    def test_streamed_curves_match_single_stream(self, multi, specs, workers, step):
        # ``step`` sets a checkpoint grid that cuts shards mid-way.
        checkpoints = list(range(step, N_TRACES + 1, step)) if step else [200, 400, 600]
        window = common.last_round_window(
            specs[0].hw_model, multi.default_n_samples()
        )
        engine = Engine(workers=workers, shard_size=SHARD)
        pairs = streamed_rank_curves(
            engine, multi, N_TRACES, key=KEY, checkpoints=checkpoints,
            seed=5, sample_window=window,
        )
        assert len(pairs) == len(specs)
        for spec, (curve, attack) in zip(specs, pairs):
            [(solo_curve, solo_attack)] = streamed_rank_curves(
                Engine(workers=1, shard_size=SHARD), [spec.build()], N_TRACES,
                key=KEY, checkpoints=checkpoints, seed=5,
                sample_window=window,
            )
            for got, expected in zip(curve.as_arrays(), solo_curve.as_arrays()):
                np.testing.assert_array_equal(got, expected)
            assert attack.n_traces == solo_attack.n_traces

    @pytest.mark.parametrize("step", [None, 64, 100, 256])
    def test_update_fallback_feeds_each_sensor_its_chunks(self, multi, step):
        # A consumer type without update_many gets one update call per
        # sensor per segment, the whole segment at once: shards cut at
        # the checkpoint grid, and the chunk sequence each sensor sees
        # does not depend on the fan-out loop order.
        class Recorder:
            def __init__(self):
                self.chunks = []

            def update(self, traces, cts):
                self.chunks.append((np.array(traces), np.array(cts)))

            def merge(self, other):
                self.chunks += other.chunks
                return self

        checkpoints = list(range(step, N_TRACES + 1, step)) if step else []
        masters = Engine(workers=1, shard_size=SHARD).stream_attack_many(
            multi, N_TRACES, key=KEY, consumer_factory=Recorder, seed=5,
            checkpoints=checkpoints,
        )
        collected = Engine(workers=1, shard_size=SHARD).collect_many(
            multi, N_TRACES, key=KEY, seed=5
        )
        expected = []
        for start in range(0, N_TRACES, SHARD):
            stop = min(start + SHARD, N_TRACES)
            edges = [start, *(c for c in checkpoints if start < c < stop), stop]
            expected += zip(edges, edges[1:])
        for master, ts in zip(masters, collected):
            assert [len(c) for c, _ in master.chunks] == [
                hi - lo for lo, hi in expected
            ]
            for (traces, cts), (lo, hi) in zip(master.chunks, expected):
                np.testing.assert_array_equal(traces, ts.traces[lo:hi])
                np.testing.assert_array_equal(cts, ts.ciphertexts[lo:hi])

    def test_checkpoint_callback_order(self, multi):
        engine = Engine(workers=1, shard_size=SHARD)
        seen = []

        class Consumer:
            def update(self, traces, pts):
                pass

            def merge(self, other):
                return self

        engine.stream_attack_many(
            multi, 512, key=KEY, consumer_factory=Consumer, seed=5,
            checkpoints=[256, 512],
            on_checkpoint=lambda index, done, acc: seen.append((index, done)),
        )
        n = len(multi)
        assert seen == [(i, 256) for i in range(n)] + [(i, 512) for i in range(n)]
        assert engine.last_metrics.kind == "stream"

    def test_serial_stream_folds_into_the_masters(self, multi, specs):
        """A serial run folds every segment straight into the masters:
        the factory makes one accumulator per sensor and nothing is
        merged.  Every checkpoint and final state equals a 2-worker
        run's, which merges its workers' segments, bit for bit."""
        n = len(multi)
        n_samples = multi.default_n_samples()
        window = common.last_round_window(specs[0].hw_model, n_samples)
        made, merged = [], []

        class Counted(CPAAttack):
            def merge(self, other):
                merged.append(other)
                return super().merge(other)

        def factory():
            made.append(None)
            return Counted(n_samples, sample_window=window)

        def run(workers, consumer_factory):
            seen = []
            masters = Engine(workers=workers, shard_size=64).stream_attack_many(
                multi, 512, key=KEY, consumer_factory=consumer_factory, seed=5,
                # 8 shards of 64; some checkpoints cut a shard mid-way.
                checkpoints=[40, 100, 128, 200, 300, 450, 512],
                on_checkpoint=lambda index, done, acc: seen.append(
                    (index, done, acc.peak_correlations().copy(), acc.state_arrays())
                ),
            )
            return seen, [m.state_arrays() for m in masters]

        serial_seen, serial_states = run(1, factory)
        assert len(made) == n and merged == []
        pool_seen, pool_states = run(
            2, partial(CPAAttack, n_samples, sample_window=window)
        )
        assert [p[:2] for p in serial_seen] == [p[:2] for p in pool_seen]
        assert len(serial_seen) == 7 * n
        for (_, _, got_peaks, got), (_, _, want_peaks, want) in zip(
            serial_seen, pool_seen
        ):
            np.testing.assert_array_equal(got_peaks, want_peaks)
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])
        for got, want in zip(serial_states, pool_states):
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_characterize_many_matches_characterize(self, workers):
        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup, n_instances=800, n_groups=4)
        sensors = common.region_sensors(setup, seed=7)[:3]
        engine = Engine(workers=workers, shard_size=SHARD)
        outs = engine.characterize_many(
            sensors, setup.coupling, virus, 2, 600, seed=5
        )
        assert engine.last_metrics.kind == "characterize"
        for sensor, out in zip(sensors, outs):
            [solo] = Engine(workers=1, shard_size=SHARD).characterize_many(
                [sensor], setup.coupling, virus, 2, 600, seed=5
            )
            np.testing.assert_array_equal(out, solo)

    def test_characterize_many_rejects_empty(self):
        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup, n_instances=800, n_groups=4)
        with pytest.raises(ConfigurationError):
            Engine(workers=1).characterize_many([], setup.coupling, virus, 0, 100)

    @pytest.mark.parametrize("n_consumers", [1, 3], ids=["too-few", "too-many"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_consumers_must_match_the_fanout_width(
        self, specs, workers, n_consumers
    ):
        """A continuation list one entry per sensor, or nothing: any
        other length is refused before a shard runs, at any worker
        count, and ``streamed_rank_curves(attacks=...)`` inherits it."""
        pair = MultiSensorAcquisition(specs[:2])
        factory = partial(CPAAttack, pair.default_n_samples())
        events = []
        engine = Engine(workers=workers, shard_size=128, progress=events.append)
        with pytest.raises(ConfigurationError, match="fan-out of 2 sensors"):
            engine.stream_attack_many(
                pair, 256, key=KEY, consumer_factory=factory, seed=5,
                consumers=[factory() for _ in range(n_consumers)],
            )
        with pytest.raises(ConfigurationError, match="fan-out of 2 sensors"):
            streamed_rank_curves(
                engine, pair, 256, key=KEY, checkpoints=[256], seed=5,
                attacks=[factory() for _ in range(n_consumers)],
            )
        assert events == []

    def test_stream_attack_relays_a_fanout_of_one(self, specs):
        """``Engine.stream_attack`` is ``stream_attack_many`` over one
        sensor: the same accumulator, the same checkpoints with the
        sensor index dropped, the same continuation."""
        acq = specs[1].build()
        factory = partial(CPAAttack, acq.default_n_samples())
        engine = Engine(workers=1, shard_size=SHARD)
        got, want = [], []
        attack = engine.stream_attack(
            acq, N_TRACES, key=KEY, consumer_factory=factory, seed=5,
            checkpoints=[200, 600],
            on_checkpoint=lambda done, acc: got.append(
                (done, acc.peak_correlations().copy())
            ),
        )
        [expected] = engine.stream_attack_many(
            [acq], N_TRACES, key=KEY, consumer_factory=factory, seed=5,
            checkpoints=[200, 600],
            on_checkpoint=lambda index, done, acc: want.append(
                (done, acc.peak_correlations().copy())
            ),
        )
        assert [d for d, _ in got] == [d for d, _ in want] == [200, 600]
        for (_, a), (_, b) in zip(got, want):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(attack.correlations(), expected.correlations())

        more = engine.stream_attack(
            acq, 256, key=KEY, consumer_factory=factory, seed=9, consumer=attack
        )
        [expected_more] = engine.stream_attack_many(
            [acq], 256, key=KEY, consumer_factory=factory, seed=9,
            consumers=[expected],
        )
        assert more is attack and more.n_traces == N_TRACES + 256
        np.testing.assert_array_equal(
            more.correlations(), expected_more.correlations()
        )


@pytest.mark.parametrize(
    "module,owner,name",
    [
        ("repro.runtime.engine", "Engine", "collect"),
        ("repro.runtime.engine", "Engine", "characterize"),
        ("repro.runtime.engine", "Engine", "_stream"),
        ("repro.attacks", None, "streamed_rank_curve"),
        ("repro.attacks.metrics", None, "streamed_rank_curve"),
        ("repro.experiments.table1_traces", None, "streamed_placement_curve"),
        ("repro.experiments.table1_traces", None, "placement_acquisition"),
    ],
)
def test_single_sensor_twins_are_retired(module, owner, name):
    """A single-sensor campaign is the N=1 fan-out: the singular twins
    of the fan-out API are gone, not kept as wrappers."""
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert not hasattr(target, name)


# ----------------------------------------------------------------------
# Per-sensor sub-block caching
# ----------------------------------------------------------------------


def _arrays_of(obj, found):
    """Every ndarray reachable through ``obj``'s attributes."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            found.append(value)
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            _arrays_of(value, found)
    return found


def _mapping_of(array):
    """The ``mmap`` an array views (through its memoryview), else None."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    obj = getattr(base, "obj", None)
    return obj if isinstance(obj, mmap.mmap) else None


def _flat_arrays(payload):
    """The ndarrays of a nest of lists and tuples, in order."""
    if isinstance(payload, np.ndarray):
        return [payload]
    return [a for item in payload for a in _flat_arrays(item)]


class TestPoolResultTransport:
    """Pool shard results cross the result pipe as a few hundred bytes
    of in-band pickle; their arrays arrive as views of one shared-memory
    mapping per shard, and every output bit equals a serial run."""

    @pytest.fixture()
    def received(self, monkeypatch):
        """``(in_band_bytes, segment, results)`` per pool result."""
        seen = []
        decode = scheduler._decode_results

        def recording_decode(payload):
            results = decode(payload)
            seen.append((len(payload[0]), payload[1], list(results)))
            return results

        monkeypatch.setattr(scheduler, "_decode_results", recording_decode)
        return seen

    def test_stream_results_arrive_out_of_band(self, multi, specs, received):
        n_samples = multi.default_n_samples()
        factory = partial(
            CPAAttack, n_samples,
            sample_window=common.last_round_window(specs[0].hw_model, n_samples),
        )

        def run(workers):
            peaks = []
            masters = Engine(workers=workers, shard_size=64).stream_attack_many(
                multi, 512, key=KEY, consumer_factory=factory, seed=5,
                checkpoints=[40, 100, 200, 300, 450, 512],
                on_checkpoint=lambda index, done, acc: peaks.append(
                    (index, done, acc.peak_correlations().copy())
                ),
            )
            return peaks, [m.state_arrays() for m in masters]

        pool_peaks, pool_states = run(2)
        assert len(received) == 8  # one result per 64-trace shard
        for in_band, segment, results in received:
            assert in_band < 64 * 1024
            assert segment.startswith(scheduler.RESULT_SEGMENT_PREFIX)
            ((_metrics, per_sensor),) = results
            arrays = [
                a
                for segments in per_sensor
                for _end, part in segments
                for a in _arrays_of(part, [])
            ]
            mapping = _mapping_of(arrays[0])
            assert mapping is not None
            for a in arrays:  # zero-copy views of the one shard mapping
                assert _mapping_of(a) is mapping
                assert np.shares_memory(a, np.frombuffer(mapping, np.uint8))
        serial_peaks, serial_states = run(1)
        assert [p[:2] for p in pool_peaks] == [p[:2] for p in serial_peaks]
        for (_, _, got), (_, _, want) in zip(pool_peaks, serial_peaks):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(pool_states, serial_states):
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])

    @staticmethod
    def payloads(received):
        """Each pool result's payload, after checking that it crossed
        the pipe in under 64 KiB of in-band pickle and that every one
        of its arrays views the shard's one result mapping."""
        for in_band, segment, results in received:
            assert in_band < 64 * 1024
            assert segment.startswith(scheduler.RESULT_SEGMENT_PREFIX)
            ((_metrics, payload),) = results
            arrays = _flat_arrays(payload)
            mapping = _mapping_of(arrays[0])
            assert mapping is not None
            for a in arrays:
                assert type(a) is np.ndarray
                assert _mapping_of(a) is mapping
                assert np.shares_memory(a, np.frombuffer(mapping, np.uint8))
            yield payload

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_collect_results_arrive_out_of_band(
        self, multi, received, tmp_path, warm
    ):
        """Warm, every shard hits and its arrays view the block files:
        a memmap reaching the pickler would travel in band, whole."""
        cache = str(tmp_path) if warm else None
        serial = Engine(workers=1, shard_size=SHARD, cache=cache).collect_many(
            multi, N_TRACES, key=KEY, seed=5
        )
        pool = Engine(workers=2, shard_size=SHARD, cache=cache)
        pooled = pool.collect_many(multi, N_TRACES, key=KEY, seed=5)
        assert pool.cache_totals["hits"] == (3 if warm else 0)
        assert len(received) == 3  # one result per 256-trace shard
        for readouts, pts, cts in self.payloads(received):
            assert len(readouts) == len(multi)
        for got, want in zip(pooled, serial):
            np.testing.assert_array_equal(got.traces, want.traces)
            np.testing.assert_array_equal(got.plaintexts, want.plaintexts)
            np.testing.assert_array_equal(got.ciphertexts, want.ciphertexts)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_characterize_results_arrive_out_of_band(
        self, received, tmp_path, warm
    ):
        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup, n_instances=800, n_groups=4)
        sensors = common.region_sensors(setup, seed=7)[:3]
        cache = str(tmp_path) if warm else None

        def run(workers):
            engine = Engine(workers=workers, shard_size=SHARD, cache=cache)
            outs = engine.characterize_many(
                sensors, setup.coupling, virus, 2, 600, seed=5
            )
            return engine, outs

        _, serial = run(1)
        pool, pooled = run(2)
        assert pool.cache_totals["hits"] == (3 if warm else 0)
        assert len(received) == 3
        for readouts in self.payloads(received):
            assert len(readouts) == len(sensors)
        for got, want in zip(pooled, serial):
            np.testing.assert_array_equal(got, want)


class TestFanoutCache:
    def test_cold_warm_and_cross_compat(self, multi, specs, tmp_path):
        n_shards = -(-N_TRACES // SHARD)
        n_sensors = len(specs)

        cold = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        cold_sets = cold.collect_many(multi, N_TRACES, key=KEY, seed=5)
        assert cold.cache_totals["misses"] == n_shards
        assert cold.cache_totals["sub_misses"] == n_shards * n_sensors
        assert cold.cache_totals["sub_hits"] == 0

        warm = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        warm_sets = warm.collect_many(multi, N_TRACES, key=KEY, seed=5)
        assert warm.cache_totals["hits"] == n_shards
        assert warm.cache_totals["sub_hits"] == n_shards * n_sensors
        assert warm.cache_totals["misses"] == 0
        for a, b in zip(cold_sets, warm_sets):
            np.testing.assert_array_equal(a.traces, b.traces)

        # Fan-out sub-blocks use exactly the single-sensor keys: a
        # standalone campaign over one member is served fully warm.
        single = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [solo] = single.collect_many(
            [specs[1].build()], N_TRACES, key=KEY, seed=5
        )
        assert single.cache_totals["hits"] == n_shards
        assert single.cache_totals["misses"] == 0
        # A single-sensor shard is a fan-out of one: one sub-lookup each.
        assert single.cache_totals["sub_hits"] == n_shards
        np.testing.assert_array_equal(solo.traces, cold_sets[1].traces)

    def test_partial_shard_accounting(self, multi, specs, tmp_path):
        n_shards = -(-N_TRACES // SHARD)
        n_sensors = len(specs)

        # Warm exactly one sensor's sub-blocks, then fan out.
        single = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        single.collect_many([specs[0].build()], N_TRACES, key=KEY, seed=5)

        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        engine.collect_many(multi, N_TRACES, key=KEY, seed=5)
        assert engine.cache_totals["partial"] == n_shards
        assert engine.cache_totals["hits"] == 0
        assert engine.cache_totals["misses"] == 0
        assert engine.cache_totals["sub_hits"] == n_shards
        assert engine.cache_totals["sub_misses"] == n_shards * (n_sensors - 1)

        summary = engine.last_metrics.cache_summary()
        for field in ("partial", "sub_hits", "sub_misses"):
            assert field in summary
        assert "partial" in engine.last_metrics.summary()

    def test_store_reports_fanout_blocks(self, multi, tmp_path):
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        engine.collect_many(multi, N_TRACES, key=KEY, seed=5)
        store = BlockStore(tmp_path)
        stats = store.stats()
        assert stats.n_blocks > 0
        assert stats.fanout_blocks == stats.n_blocks
        assert "from fan-out" in stats.summary()

    def test_peek_block_meta(self, multi, tmp_path):
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        engine.collect_many(multi, N_TRACES, key=KEY, seed=5)
        store = BlockStore(tmp_path)
        metas = [peek_block_meta(p) for p in store._iter_block_paths()]
        fanouts = [m["fanout"] for m in metas if "fanout" in m]
        assert fanouts and all(f["sensors"] == len(multi) for f in fanouts)
        assert sorted({f["index"] for f in fanouts}) == list(range(len(multi)))

    def test_peek_block_meta_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.block"
        bad.write_bytes(b"not a block at all")
        with pytest.raises(ValueError):
            peek_block_meta(bad)
