"""Tests for the parallel acquisition runtime.

The load-bearing property: for a fixed seed and shard size, the engine's
output is bit-identical at any worker count, and ``Engine(workers=1)``
is the serial reference path.
"""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.attacks.cpa import CPAAttack
from repro.attacks.metrics import rank_curve, streamed_rank_curves
from repro.core.calibration import calibrate
from repro.core.leaky_dsp import LeakyDSP
from repro.errors import (
    AcquisitionError,
    ConfigurationError,
    ReproError,
    WorkerLostError,
)
from repro.fpga.placement import Pblock, Placer
from repro.pdn.coupling import CouplingModel
from repro.runtime import Engine, plan_shards, root_sequence, spawn_shard_sequences
from repro.runtime import engine as engine_mod
from repro.runtime import scheduler
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec, characterize_droop
from repro.victims.aes import AESHardwareModel
from tests.conftest import engine_segments, process_alive

KEY = bytes(range(16))


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


@pytest.fixture(scope="module")
def characterization():
    from repro.experiments import common

    setup = common.Basys3Setup.create()
    virus = common.make_virus(setup, n_instances=800, n_groups=8)
    sensor = common.make_leakydsp(
        setup, common.region_pblock(setup.device, 2), seed=9
    )
    return sensor, setup.coupling, virus


class TestShardPlanning:
    def test_covers_range_without_overlap(self):
        shards = plan_shards(1000, 128)
        assert shards[0].start == 0
        assert shards[-1].stop == 1000
        for a, b in zip(shards, shards[1:]):
            assert a.stop == b.start
        assert sum(s.size for s in shards) == 1000

    def test_single_shard(self):
        shards = plan_shards(10, 128)
        assert len(shards) == 1
        assert shards[0].slice == slice(0, 10)

    def test_plan_independent_of_workers(self):
        # The plan is a pure function of (n_items, shard_size).
        assert plan_shards(999, 100) == plan_shards(999, 100)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            plan_shards(0, 128)
        with pytest.raises(ConfigurationError):
            plan_shards(10, 0)

    def test_spawned_sequences_are_distinct(self):
        seqs = spawn_shard_sequences(3, 4)
        states = [tuple(s.generate_state(2)) for s in seqs]
        assert len(set(states)) == 4

    def test_root_sequence_rejects_generators(self):
        with pytest.raises(ConfigurationError):
            root_sequence(np.random.default_rng(0))

    def test_root_sequence_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        assert root_sequence(seq) is seq


class TestEngineCollect:
    def test_identical_across_worker_counts(self, acquisition):
        [reference] = Engine(workers=1, shard_size=16).collect_many(
            [acquisition], 100, key=KEY, seed=3
        )
        for workers in (2, 4):
            [ts] = Engine(workers=workers, shard_size=16).collect_many(
                [acquisition], 100, key=KEY, seed=3
            )
            np.testing.assert_array_equal(ts.traces, reference.traces)
            np.testing.assert_array_equal(ts.plaintexts, reference.plaintexts)
            np.testing.assert_array_equal(ts.ciphertexts, reference.ciphertexts)
            np.testing.assert_array_equal(ts.key, reference.key)

    def test_serial_engine_matches_itself(self, acquisition):
        [a] = Engine(workers=1, shard_size=32).collect_many(
            [acquisition], 50, key=KEY, seed=1
        )
        [b] = Engine(workers=1, shard_size=32).collect_many(
            [acquisition], 50, key=KEY, seed=1
        )
        np.testing.assert_array_equal(a.traces, b.traces)

    def test_seed_changes_output(self, acquisition):
        engine = Engine(workers=1, shard_size=32)
        [a] = engine.collect_many([acquisition], 50, key=KEY, seed=1)
        [b] = engine.collect_many([acquisition], 50, key=KEY, seed=2)
        assert not np.array_equal(a.plaintexts, b.plaintexts)

    def test_ciphertexts_are_real_aes(self, acquisition):
        from repro.victims.aes import AES128

        [ts] = Engine(workers=1, shard_size=32).collect_many(
            [acquisition], 10, key=KEY, seed=4
        )
        aes = AES128(KEY)
        expected = aes.encrypt_blocks(ts.plaintexts)
        np.testing.assert_array_equal(ts.ciphertexts, expected)

    def test_metadata_and_metrics(self, acquisition):
        engine = Engine(workers=1, shard_size=16)
        [ts] = engine.collect_many([acquisition], 40, key=KEY, seed=0)
        assert ts.metadata["sensor_type"] == "LeakyDSP"
        m = engine.last_metrics
        assert m.kind == "collect"
        assert m.n_items == 40
        assert m.n_shards == 3
        assert sum(s.n_items for s in m.shards) == 40
        assert m.items_per_second > 0
        stages = m.stage_totals()
        assert {"aes", "pdn", "sensor"} <= set(stages)

    def test_progress_events(self, acquisition):
        events = []
        engine = Engine(workers=1, shard_size=16, progress=events.append)
        engine.collect_many([acquisition], 40, key=KEY, seed=0)
        assert [e.done for e in events] == [16, 32, 40]
        assert all(e.total == 40 for e in events)
        assert all(e.kind == "collect" for e in events)

    def test_generator_seed_rejected(self, acquisition):
        with pytest.raises(ConfigurationError):
            Engine(workers=1).collect_many(
                [acquisition], 10, key=KEY, seed=np.random.default_rng(0)
            )

    def test_bad_engine_params_rejected(self):
        with pytest.raises(ConfigurationError):
            Engine(workers=0)
        with pytest.raises(ConfigurationError):
            Engine(shard_size=0)


class TestEngineCharacterize:
    def test_identical_across_worker_counts(self, characterization):
        sensor, coupling, virus = characterization
        [reference] = Engine(workers=1, shard_size=64).characterize_many(
            [sensor], coupling, virus, 4, 300, seed=11
        )
        for workers in (2, 3):
            [out] = Engine(workers=workers, shard_size=64).characterize_many(
                [sensor], coupling, virus, 4, 300, seed=11
            )
            np.testing.assert_array_equal(out, reference)

    def test_matches_noise_free_statistics(self, characterization):
        # The readout mean must sit near the sensor's noise-free
        # readout at the virus's steady-state droop.
        sensor, coupling, virus = characterization
        [engine_out] = Engine(workers=1).characterize_many(
            [sensor], coupling, virus, 8, 600, seed=0
        )
        droop = characterize_droop(sensor, coupling, virus, 8)
        expected = sensor.expected_readout(
            np.array([sensor.constants.v_nominal - droop])
        )[0]
        assert abs(engine_out.mean() - expected) < 2.0

    def test_progress_and_metrics(self, characterization):
        sensor, coupling, virus = characterization
        events = []
        engine = Engine(workers=1, shard_size=100, progress=events.append)
        engine.characterize_many([sensor], coupling, virus, 2, 250, seed=5)
        assert [e.done for e in events] == [100, 200, 250]
        assert engine.last_metrics.kind == "characterize"
        assert engine.last_metrics.n_items == 250


class TestEngineStreamAttack:
    """stream_attack must reproduce the serial batch CPA bit-for-bit:
    same seed => same traces => (exact integer sums) => identical
    correlations, at any worker count and any checkpoint grid (the
    checkpoints cut each shard into the segments the accumulators are
    fed)."""

    @pytest.fixture(scope="class")
    def batch(self, acquisition):
        [ts] = Engine(workers=1, shard_size=16).collect_many(
            [acquisition], 120, key=KEY, seed=3
        )
        attack = CPAAttack(ts.n_samples)
        attack.add_traces(ts.traces, ts.ciphertexts)
        return ts, attack

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("checkpoint_step", [None, 7, 64])
    def test_streamed_cpa_is_bit_identical(
        self, acquisition, batch, workers, checkpoint_step
    ):
        ts, reference = batch
        engine = Engine(workers=workers, shard_size=16)
        [attack] = engine.stream_attack_many(
            [acquisition],
            120,
            key=KEY,
            consumer_factory=partial(CPAAttack, ts.n_samples),
            seed=3,
            checkpoints=range(checkpoint_step, 121, checkpoint_step)
            if checkpoint_step else (),
        )
        assert attack.n_traces == reference.n_traces == 120
        np.testing.assert_array_equal(
            attack.correlations(), reference.correlations()
        )
        np.testing.assert_array_equal(
            attack.best_guesses(), reference.best_guesses()
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_streamed_rank_curve_matches_batch(self, acquisition, batch, workers):
        ts, _ = batch
        checkpoints = [40, 80, 120]
        expected = rank_curve(ts, checkpoints)
        engine = Engine(workers=workers, shard_size=16)
        [(curve, attack)] = streamed_rank_curves(
            engine, [acquisition], 120, key=KEY, checkpoints=checkpoints,
            seed=3,
        )
        assert attack.n_traces == 120
        got = [(p.n_traces, p.log2_lower, p.log2_upper, p.recovered)
               for p in curve.points]
        want = [(p.n_traces, p.log2_lower, p.log2_upper, p.recovered)
                for p in expected.points]
        assert got == want

    def test_checkpoints_see_exact_prefixes(self, acquisition, batch):
        ts, _ = batch
        seen = []

        def on_checkpoint(sensor, count, acc):
            assert sensor == 0
            seen.append((count, acc.n_traces, acc.peak_correlations().copy()))

        Engine(workers=1, shard_size=16).stream_attack_many(
            [acquisition], 120, key=KEY,
            consumer_factory=partial(CPAAttack, ts.n_samples),
            seed=3, checkpoints=[24, 120], on_checkpoint=on_checkpoint,
        )
        assert [(c, n) for c, n, _ in seen] == [(24, 24), (120, 120)]
        for count, _, peaks in seen:
            prefix = CPAAttack(ts.n_samples)
            prefix.add_traces(ts.traces[:count], ts.ciphertexts[:count])
            np.testing.assert_array_equal(peaks, prefix.peak_correlations())

    def test_consumer_continues_accumulating(self, acquisition, batch):
        ts, reference = batch
        engine = Engine(workers=1, shard_size=16)
        factory = partial(CPAAttack, ts.n_samples)
        [first] = engine.stream_attack_many(
            [acquisition], 120, key=KEY, consumer_factory=factory, seed=3
        )
        [again] = engine.stream_attack_many(
            [acquisition], 40, key=KEY, consumer_factory=factory, seed=99,
            consumers=[first],
        )
        assert again is first
        assert again.n_traces == 160

    def test_stream_metrics_and_progress(self, acquisition):
        events = []
        engine = Engine(workers=1, shard_size=16, progress=events.append)
        engine.stream_attack_many(
            [acquisition], 40, key=KEY,
            consumer_factory=partial(CPAAttack, acquisition.default_n_samples()),
            seed=0,
        )
        assert [e.done for e in events] == [16, 32, 40]
        assert all(e.kind == "stream" for e in events)
        m = engine.last_metrics
        assert m.kind == "stream"
        assert m.n_items == 40
        assert sum(s.n_items for s in m.shards) == 40

    def test_rejects_bad_checkpoints(self, acquisition):
        factory = partial(CPAAttack, acquisition.default_n_samples())
        engine = Engine(workers=1, shard_size=16)
        with pytest.raises(ConfigurationError):
            engine.stream_attack_many(
                [acquisition], 20, key=KEY, consumer_factory=factory,
                checkpoints=[10, 10, 20],
            )
        with pytest.raises(ConfigurationError):
            engine.stream_attack_many(
                [acquisition], 20, key=KEY, consumer_factory=factory,
                checkpoints=[10, 40],
            )
        with pytest.raises(ConfigurationError):
            engine.stream_attack_many(
                [acquisition], 20, key=KEY, consumer_factory=factory,
                checkpoints=[0, 10],
            )


_PARENT_PID = os.getpid()


class _DyingAttack(CPAAttack):
    """A CPA accumulator whose pool worker exits hard (no exception, no
    cleanup) on its third ``update``, as a killed or OOM-reaped worker
    would."""

    updates = 0

    def update(self, traces, ciphertexts):
        if os.getpid() != _PARENT_PID:
            type(self).updates += 1
            if type(self).updates == 3:
                os._exit(3)
        return super().update(traces, ciphertexts)


class _DyingShardCache(engine_mod._ShardCache):
    """The shard cache of a collect or characterize body whose pool
    worker exits hard as it starts shard 3."""

    def __init__(self, store, keys, profile, shard, n_sensors):
        if os.getpid() != _PARENT_PID and shard.index == 3:
            os._exit(3)
        super().__init__(store, keys, profile, shard, n_sensors)


class _Boom(Exception):
    pass


#: A pool dispatch whose parent prints the first result's segment name
#: and its worker pids, then SIGKILLs itself before decoding it.
_KILLED_PARENT = """
import multiprocessing, os, signal
import numpy as np
from repro.runtime import scheduler
from repro.runtime.sharding import Shard

def task(shard, seq, key):
    return np.full(4096, shard.index)

def die(payload):
    pids = [p.pid for p in multiprocessing.active_children()]
    print(payload[1], *pids, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)

scheduler._decode_results = die
tasks = [
    scheduler.ShardTask(i, Shard(i, 10 * i, 10 * i + 10), np.random.SeedSequence(i))
    for i in range(4)
]
for _ in scheduler.dispatch(
    tasks, workers=2, schedule="stealing", task=task,
    pool_initializer=None, pool_initargs=(),
):
    pass
"""


class TestWorkerLoss:
    """A pool campaign that fails leaves no shard result's
    shared-memory segment behind."""

    def test_dead_worker_raises_typed_error_and_leaks_no_segment(
        self, acquisition
    ):
        before = engine_segments()
        engine = Engine(workers=2, shard_size=16)
        with pytest.raises(WorkerLostError) as info:
            engine.stream_attack_many(
                [acquisition], 128, key=KEY, seed=3,
                consumer_factory=partial(
                    _DyingAttack, acquisition.default_n_samples()
                ),
            )
        assert isinstance(info.value, ReproError)
        assert info.value.shards
        assert set(info.value.shards) <= set(range(8))
        assert str(list(info.value.shards)) in str(info.value)
        assert engine_segments() - before == set()

    @pytest.mark.parametrize("kind", ["collect", "characterize"])
    def test_dead_worker_in_a_pooled_campaign_of_any_kind(
        self, kind, acquisition, characterization, monkeypatch
    ):
        monkeypatch.setattr(engine_mod, "_ShardCache", _DyingShardCache)
        engine = Engine(workers=2, shard_size=16)
        before = engine_segments()
        with pytest.raises(WorkerLostError) as info:
            if kind == "collect":
                engine.collect_many([acquisition], 128, key=KEY, seed=3)
            else:
                sensor, coupling, virus = characterization
                engine.characterize_many([sensor], coupling, virus, 4, 128, seed=3)
        assert 3 in info.value.shards
        assert set(info.value.shards) <= set(range(8))
        assert str(list(info.value.shards)) in str(info.value)
        assert engine_segments() - before == set()

    def test_worker_dying_after_writing_its_result_leaks_no_segment(
        self, acquisition, monkeypatch
    ):
        """The worker exits between writing its result segment and
        returning its name: only the dispatch sweep can unlink it."""
        encode = scheduler._encode_results

        def encode_then_die(results, segment):
            payload = encode(results, segment)
            if os.getpid() != _PARENT_PID:
                os._exit(3)
            return payload

        monkeypatch.setattr(scheduler, "_encode_results", encode_then_die)
        before = engine_segments()
        with pytest.raises(WorkerLostError):
            Engine(workers=2, shard_size=16).stream_attack_many(
                [acquisition], 128, key=KEY, seed=3,
                consumer_factory=partial(
                    CPAAttack, acquisition.default_n_samples()
                ),
            )
        assert engine_segments() - before == set()

    def test_failing_checkpoint_callback_leaks_no_segment(self, acquisition):
        """The consumer raises after the first shard while later shards
        are in flight or already written: the exception propagates
        unchanged and their segments are swept."""
        calls = []

        def on_checkpoint(_sensor, done, acc):
            calls.append(done)
            raise _Boom(done)

        before = engine_segments()
        with pytest.raises(_Boom) as info:
            Engine(workers=2, shard_size=16).stream_attack_many(
                [acquisition], 128, key=KEY, seed=3,
                consumer_factory=partial(
                    CPAAttack, acquisition.default_n_samples()
                ),
                checkpoints=[16, 128], on_checkpoint=on_checkpoint,
            )
        assert calls == [16] and info.value.args == (16,)
        assert engine_segments() - before == set()

    def test_killed_parent_leaves_its_segments_to_the_resource_tracker(self):
        """A SIGKILLed parent runs no sweep.  Its orphaned workers see
        the parent gone and exit by themselves, which frees its
        resource tracker to unlink the segment written but never
        decoded."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]
        ))
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_PARENT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        with proc.stdout:  # the orphans hold it open: read one line only
            segment, *workers = proc.stdout.readline().split()
        assert workers
        try:
            assert proc.wait(timeout=60) == -signal.SIGKILL
            assert segment in engine_segments()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                process_alive(int(pid)) for pid in workers
            ):
                time.sleep(0.05)
            assert not any(process_alive(int(pid)) for pid in workers)
        finally:
            for pid in workers:  # only if the assertion above failed
                try:
                    os.kill(int(pid), signal.SIGKILL)
                except ProcessLookupError:
                    pass
        prefix = segment.rsplit("_", 1)[0]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(
            name.startswith(prefix) for name in engine_segments()
        ):
            time.sleep(0.05)
        assert not any(name.startswith(prefix) for name in engine_segments())

    def test_leak_checks_ignore_live_foreign_segments(self):
        """The leak checks count a segment only when it was made for
        this process or for one no longer alive: another live session's
        segments are its own business."""
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        owners = {"foreign": os.getppid(), "own": os.getpid(), "dead": finished.pid}
        assert process_alive(os.getppid())
        segments = [
            shared_memory.SharedMemory(
                name=f"{scheduler.RESULT_SEGMENT_PREFIX}{pid}_leakrule_{who}",
                create=True, size=1,
            )
            for who, pid in owners.items()
        ]
        try:
            found = engine_segments()
        finally:
            for seg in segments:
                seg.close()
                seg.unlink()
        assert {n.rsplit("_", 1)[1] for n in found if "_leakrule_" in n} == {
            "own", "dead"
        }


class TestActiveGroupsValidation:
    def test_float_integral_accepted(self, characterization):
        sensor, coupling, virus = characterization
        [a] = Engine().characterize_many([sensor], coupling, virus, 4.0, 50, seed=1)
        [b] = Engine().characterize_many([sensor], coupling, virus, 4, 50, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_fractional_float_rejected(self, characterization):
        sensor, coupling, virus = characterization
        with pytest.raises(AcquisitionError):
            Engine().characterize_many([sensor], coupling, virus, 2.5, 50)

    def test_bool_rejected(self, characterization):
        sensor, coupling, virus = characterization
        with pytest.raises(AcquisitionError):
            Engine().characterize_many([sensor], coupling, virus, True, 50)

    def test_out_of_range_rejected(self, characterization):
        sensor, coupling, virus = characterization
        with pytest.raises(AcquisitionError):
            Engine().characterize_many(
                [sensor], coupling, virus, virus.n_groups + 1, 50
            )
        with pytest.raises(AcquisitionError):
            Engine().characterize_many([sensor], coupling, virus, -1, 50)

    def test_numpy_integer_accepted(self, characterization):
        sensor, coupling, virus = characterization
        [out] = Engine().characterize_many(
            [sensor], coupling, virus, np.int64(3), 50, seed=2
        )
        assert out.shape == (50,)


class TestConcurrentCampaigns:
    """Serial campaigns on several threads of one process (the campaign
    service's executor) share no scratch memory: each equals the same
    campaign run alone, bit for bit."""

    def test_scratch_is_per_thread(self):
        from repro.analysis.streaming import _FINALIZE_SCRATCH
        from repro.attacks import cpa
        from repro.kernels import get_kernel

        kernel = get_kernel(None)

        def buffers():
            return [
                cpa._pool_array("hyp_chunk", (4, 16, 256), np.uint8),
                kernel._workspace(640)["volts"],
                *_FINALIZE_SCRATCH.blocks((4, 4096)),
            ]

        mine = buffers()
        with ThreadPoolExecutor(1) as pool:
            theirs = pool.submit(buffers).result()
        for a, b, again in zip(mine, theirs, buffers()):
            assert not np.shares_memory(a, b)
            assert np.shares_memory(a, again)  # reused within a thread

    def test_two_threads_match_serial(self):
        from repro.attacks.metrics import streamed_rank_curves
        from repro.experiments import common

        specs = common.placement_specs(("P1", "P2", "P6"))
        window = common.last_round_window(
            specs[0].hw_model, specs[0].build().default_n_samples()
        )

        def campaign(seed):
            pairs = streamed_rank_curves(
                Engine(workers=1, shard_size=1024), specs, 6144, key=KEY,
                checkpoints=[1500, 3000, 6144], seed=seed, sample_window=window,
            )
            return [
                (curve.as_arrays(), attack.state_arrays())
                for curve, attack in pairs
            ]

        # More threads than cores, switching often.
        seeds = (11, 12, 13)
        alone = [campaign(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                futures = [pool.submit(campaign, seed) for seed in seeds]
                together = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(together, alone):
            for (curve, state), (want_curve, want_state) in zip(got, want):
                for a, b in zip(curve, want_curve):
                    np.testing.assert_array_equal(a, b)
                for name in want_state:
                    np.testing.assert_array_equal(state[name], want_state[name])
