"""Tests for the content-addressed trace block cache.

The load-bearing property mirrors the engine's determinism contract:
cache state (off, cold, warm) can never change a result — only its
cost.  Corruption must surface as a typed warning plus re-acquisition,
never as a crash or silently wrong data.
"""

import dataclasses
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from repro.attacks.cpa import CPAAttack
from repro.core.calibration import calibrate
from repro.core.leaky_dsp import LeakyDSP
from repro.errors import CacheError, CacheIntegrityWarning
from repro.fpga.placement import Pblock, Placer
from repro.pdn.coupling import CouplingModel
from repro.runtime import Engine
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec
from repro.traces.blockstore import (
    BlockStore,
    block_key,
    canonical_payload,
    open_store,
    seed_lineage,
)
from repro.traces.store import TraceSet
from repro.victims.aes import AESHardwareModel
from tests.oracles import REFERENCE_KERNEL

KEY = bytes(range(16))
N_TRACES = 600
SHARD = 256  # -> 3 shards


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


def with_reference_kernel(acquisition):
    """The same harness computing on the reference oracle kernel."""
    return dataclasses.replace(acquisition.spec, kernel=REFERENCE_KERNEL).build()


def _first_block_path(store):
    paths = list(store._iter_block_paths())
    assert paths
    return paths[0]


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------


class TestCanonicalKeys:
    def test_key_independent_of_mapping_order(self):
        a = {"b": 1, "a": [1, 2], "c": {"y": 2.5, "x": None}}
        b = {"c": {"x": None, "y": 2.5}, "a": (1, 2), "b": 1}
        assert block_key(a) == block_key(b)

    def test_numpy_values_canonicalize_like_python(self):
        a = {"n": np.int64(7), "x": np.float64(1.5), "v": np.arange(3)}
        b = {"n": 7, "x": 1.5, "v": [0, 1, 2]}
        assert block_key(a) == block_key(b)

    def test_bytes_hash_into_the_payload(self):
        assert block_key({"k": b"\x00" * 16}) != block_key({"k": b"\x01" * 16})

    def test_unserializable_payload_is_a_typed_error(self):
        with pytest.raises(CacheError):
            canonical_payload({"bad": object()})

    def test_seed_lineage_pins_the_stream(self):
        children = np.random.SeedSequence(3).spawn(2)
        again = np.random.SeedSequence(3).spawn(2)
        assert seed_lineage(children[0]) == seed_lineage(again[0])
        assert seed_lineage(children[0]) != seed_lineage(children[1])
        assert seed_lineage(children[0]) != seed_lineage(
            np.random.SeedSequence(4).spawn(1)[0]
        )

    def test_kernel_is_not_part_of_the_acquisition_token(self, acquisition):
        """Kernels are bit-identical by construction, so a block
        acquired by one must serve all."""
        oracle = with_reference_kernel(acquisition)
        assert oracle.kernel is not acquisition.kernel
        assert block_key(oracle.cache_token()) == block_key(
            acquisition.cache_token()
        )


# ----------------------------------------------------------------------
# Store basics
# ----------------------------------------------------------------------


class TestBlockStoreBasics:
    def test_round_trip_preserves_dtypes_shapes_values(self, tmp_path):
        store = BlockStore(tmp_path)
        arrays = {
            "traces": np.arange(60, dtype=np.int16).reshape(4, 15),
            "cts": np.arange(64, dtype=np.uint8).reshape(4, 16),
            "sums": np.linspace(-1, 1, 7),
        }
        key = block_key({"test": 1})
        store.put(key, arrays, meta={"note": "x"})
        block = store.get(key)
        assert block is not None
        assert block.meta["note"] == "x"
        for name, expected in arrays.items():
            got = block.arrays[name]
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)

    def test_reads_are_readonly_memmaps(self, tmp_path):
        store = BlockStore(tmp_path)
        key = block_key({"m": 1})
        store.put(key, {"x": np.ones(8, dtype=np.int16)})
        block = store.get(key)
        view = block.arrays["x"]
        assert isinstance(view.base, np.memmap) or isinstance(view, np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 2
        copies = block.materialize()
        copies["x"][0] = 2  # private copy is writable

    def test_miss_and_hit_counters(self, tmp_path):
        store = BlockStore(tmp_path)
        key = block_key({"c": 1})
        assert store.get(key) is None
        assert not store.contains(key)
        store.put(key, {"x": np.zeros(4)})
        assert store.contains(key)
        assert store.get(key) is not None
        assert store.counters.hits == 1
        assert store.counters.misses == 1
        assert store.counters.puts == 1
        assert store.counters.hit_rate == 0.5

    def test_stats_and_clear(self, tmp_path):
        store = BlockStore(tmp_path)
        for i in range(3):
            store.put(block_key({"i": i}), {"x": np.zeros(16)})
        stats = store.stats()
        assert stats.n_blocks == 3
        assert stats.total_bytes > 0
        assert "3 blocks" in stats.summary()
        assert store.clear() == 3
        assert store.stats().n_blocks == 0

    def test_empty_put_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            BlockStore(tmp_path).put(block_key({}), {})

    def test_open_store_normalizes(self, tmp_path):
        assert open_store(None) is None
        store = open_store(str(tmp_path))
        assert isinstance(store, BlockStore)
        assert open_store(store) is store

    def test_store_pickles_as_configuration(self, tmp_path):
        import pickle

        store = BlockStore(tmp_path, max_bytes=1 << 20)
        store.counters.hits = 5
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.max_bytes == store.max_bytes
        assert clone.counters.hits == 0  # counters are process-local


# ----------------------------------------------------------------------
# Integrity: damage never crashes and never yields wrong data
# ----------------------------------------------------------------------


class TestIntegrity:
    def _put_one(self, tmp_path):
        store = BlockStore(tmp_path)
        key = block_key({"d": 1})
        store.put(key, {"x": np.arange(256, dtype=np.int16)})
        return store, key

    def test_truncated_block_is_a_warned_miss(self, tmp_path):
        store, key = self._put_one(tmp_path)
        path = store.path_for(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.warns(CacheIntegrityWarning):
            assert store.get(key) is None
        assert not path.exists()  # quarantined
        assert store.counters.integrity_failures == 1

    def test_corrupted_payload_byte_is_a_warned_miss(self, tmp_path):
        store, key = self._put_one(tmp_path)
        path = store.path_for(key)
        data = bytearray(path.read_bytes())
        data[-7] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.warns(CacheIntegrityWarning):
            assert store.get(key) is None

    def test_corrupted_header_is_a_warned_miss(self, tmp_path):
        store, key = self._put_one(tmp_path)
        path = store.path_for(key)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(data))
        with pytest.warns(CacheIntegrityWarning):
            assert store.get(key) is None

    def test_verify_reports_and_optionally_deletes(self, tmp_path):
        store = BlockStore(tmp_path)
        good = block_key({"good": 1})
        bad = block_key({"bad": 1})
        store.put(good, {"x": np.zeros(8)})
        store.put(bad, {"x": np.zeros(8)})
        path = store.path_for(bad)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))

        report = store.verify()
        assert not report.ok
        assert report.n_ok == 1
        assert len(report.bad) == 1
        assert path.exists()

        report = store.verify(delete_bad=True)
        assert not path.exists()
        assert store.verify().ok


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------


class TestEviction:
    def test_size_cap_evicts_lru_first(self, tmp_path):
        store = BlockStore(tmp_path)
        keys = [block_key({"e": i}) for i in range(4)]
        for i, key in enumerate(keys):
            path = store.put(key, {"x": np.zeros(1024, dtype=np.int16)})
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        block_size = store.path_for(keys[0]).stat().st_size
        evicted = store.prune(max_bytes=2 * block_size)
        assert evicted == 2
        assert not store.contains(keys[0]) and not store.contains(keys[1])
        assert store.contains(keys[2]) and store.contains(keys[3])
        assert store.counters.evictions == 2

    def test_reads_refresh_lru_position(self, tmp_path):
        store = BlockStore(tmp_path)
        keys = [block_key({"r": i}) for i in range(3)]
        for i, key in enumerate(keys):
            path = store.put(key, {"x": np.zeros(1024, dtype=np.int16)})
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        store.get(keys[0])  # touch: now most recently used
        block_size = store.path_for(keys[0]).stat().st_size
        store.prune(max_bytes=2 * block_size)
        assert store.contains(keys[0])
        assert not store.contains(keys[1])

    def test_put_honors_max_bytes(self, tmp_path):
        store = BlockStore(tmp_path, max_bytes=3000)
        for i in range(5):
            store.put(block_key({"c": i}), {"x": np.zeros(512, dtype=np.int16)})
        assert store.stats().total_bytes <= 3000
        assert store.counters.evictions > 0

    def test_prune_rejects_negative(self, tmp_path):
        with pytest.raises(CacheError):
            BlockStore(tmp_path).prune(-1)

    def test_get_survives_block_pruned_after_contains(self, tmp_path):
        """Regression: a block evicted between ``contains()`` and the
        read must come back as a counted miss, never an exception —
        that is the exact window a concurrent engine's ``prune`` (or a
        fleet peer's eviction) can hit."""
        store = BlockStore(tmp_path)
        key = block_key({"race": 1})
        store.put(key, {"x": np.zeros(64, dtype=np.int16)})
        assert store.contains(key)
        # Another process prunes the store in the gap.
        BlockStore(tmp_path).prune(max_bytes=0)
        assert store.get(key, expect=True) is None
        assert store.counters.misses == 1
        assert store.counters.expired == 1
        # Unexpected lookups of never-present keys stay plain misses.
        assert store.get(block_key({"race": 2})) is None
        assert store.counters.expired == 1
        assert store.counters.misses == 2

    def test_racing_prune_during_campaign_reacquires(
        self, acquisition, tmp_path
    ):
        """A prune racing a warm campaign degrades hits to misses,
        bit-identically."""
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [cold] = engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)

        pruning = threading.Event()

        class _PruningStore(BlockStore):
            def get(self, key, touch=True, expect=False):  # noqa: D102
                if not pruning.is_set():
                    pruning.set()
                    super().prune(max_bytes=0)  # everything evicted
                return super().get(key, touch=touch, expect=expect)

        racy = Engine(
            workers=1, shard_size=SHARD, cache=_PruningStore(tmp_path)
        )
        [warm] = racy.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        np.testing.assert_array_equal(cold.traces, warm.traces)
        assert racy.cache_totals["misses"] == 3


# ----------------------------------------------------------------------
# Engine integration: off == cold == warm, bit for bit
# ----------------------------------------------------------------------


class TestEngineCache:
    def test_collect_identical_off_cold_warm(self, acquisition, tmp_path):
        [off] = Engine(workers=1, shard_size=SHARD).collect_many(
            [acquisition], N_TRACES, key=KEY, seed=3
        )
        cold_engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [cold] = cold_engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        assert cold_engine.last_metrics.cache_summary()["misses"] == 3
        assert cold_engine.last_metrics.cache_summary()["hits"] == 0

        warm_engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [warm] = warm_engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        assert warm_engine.last_metrics.cache_summary()["hits"] == 3
        assert warm_engine.last_metrics.cache_summary()["misses"] == 0
        assert warm_engine.cache_hit_rate() == 1.0

        for a, b in ((off, cold), (cold, warm)):
            np.testing.assert_array_equal(a.traces, b.traces)
            np.testing.assert_array_equal(a.plaintexts, b.plaintexts)
            np.testing.assert_array_equal(a.ciphertexts, b.ciphertexts)

    def test_warm_hits_across_worker_counts(self, acquisition, tmp_path):
        serial = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [cold] = serial.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        pooled = Engine(workers=2, shard_size=SHARD, cache=str(tmp_path))
        [warm] = pooled.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        assert pooled.last_metrics.cache_summary()["hits"] == 3
        np.testing.assert_array_equal(cold.traces, warm.traces)

    def test_seed_and_config_invalidate_blocks(self, acquisition, tmp_path):
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        engine.collect_many([acquisition], N_TRACES, key=KEY, seed=4)
        assert engine.cache_totals["misses"] == 6  # disjoint keys
        engine.collect_many([acquisition], N_TRACES, key=bytes(16), seed=3)
        assert engine.cache_totals["misses"] == 9

    def test_blocks_shared_between_kernels(self, acquisition, tmp_path):
        cold_engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [cold] = cold_engine.collect_many(
            [with_reference_kernel(acquisition)], N_TRACES, key=KEY, seed=3
        )
        warm_engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [warm] = warm_engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        assert warm_engine.last_metrics.cache_summary()["hits"] == 3
        np.testing.assert_array_equal(cold.traces, warm.traces)

    def test_damaged_block_reacquired_with_warning(self, acquisition, tmp_path):
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [cold] = engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        path = _first_block_path(engine.cache)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))

        with pytest.warns(CacheIntegrityWarning):
            [warm] = engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        np.testing.assert_array_equal(cold.traces, warm.traces)
        assert engine.last_metrics.cache_summary()["hits"] == 2
        assert engine.last_metrics.cache_summary()["misses"] == 1
        # The damaged block was re-published; a third run is all hits.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [again] = engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        assert engine.last_metrics.cache_summary()["hits"] == 3
        np.testing.assert_array_equal(cold.traces, again.traces)

    def test_stream_identical_off_cold_warm_any_chunking(
        self, acquisition, tmp_path
    ):
        n_samples = acquisition.default_n_samples()
        factory = partial(CPAAttack, n_samples)

        def correlations(engine, step=None):
            # A checkpoint grid cuts the shards into the chunks the
            # accumulator is fed.
            [attack] = engine.stream_attack_many(
                [acquisition], N_TRACES, key=KEY, consumer_factory=factory,
                seed=3, checkpoints=range(step, N_TRACES + 1, step) if step else (),
            )
            return attack.correlations()

        off = correlations(Engine(workers=1, shard_size=SHARD))
        cold = correlations(
            Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        )
        warm_chunked = correlations(
            Engine(workers=1, shard_size=SHARD, cache=str(tmp_path)),
            step=100,
        )
        warm_pool = correlations(
            Engine(workers=2, shard_size=SHARD, cache=str(tmp_path)),
            step=37,
        )
        np.testing.assert_array_equal(off, cold)
        np.testing.assert_array_equal(off, warm_chunked)
        np.testing.assert_array_equal(off, warm_pool)

    def test_collect_warms_stream_and_vice_versa(self, acquisition, tmp_path):
        """Streamed and collected campaigns share block keys."""
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        n_samples = acquisition.default_n_samples()
        engine.stream_attack_many(
            [acquisition], N_TRACES, key=KEY,
            consumer_factory=partial(CPAAttack, n_samples), seed=3,
        )
        assert engine.last_metrics.cache_summary()["hits"] == 3
        assert engine.last_metrics.cache_summary()["misses"] == 0

    def test_characterize_identical_cold_warm(self, tmp_path):
        from repro.experiments import common

        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup, n_instances=200, n_groups=4)
        sensor = common.make_leakydsp(
            setup, common.region_pblock(setup.device, 2), seed=9
        )
        [off] = Engine(workers=1, shard_size=SHARD).characterize_many(
            [sensor], setup.coupling, virus, 2, n_readouts=500, seed=5
        )
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [cold] = engine.characterize_many(
            [sensor], setup.coupling, virus, 2, n_readouts=500, seed=5
        )
        [warm] = engine.characterize_many(
            [sensor], setup.coupling, virus, 2, n_readouts=500, seed=5
        )
        assert engine.last_metrics.cache_summary()["hits"] == 2
        np.testing.assert_array_equal(off, cold)
        np.testing.assert_array_equal(cold, warm)

    def test_characterize_accounts_cache_stage_bytes(self, tmp_path):
        """The ``cache`` stage of a characterize shard carries the bytes
        it moved, as collect and stream shards do."""
        from repro.experiments import common

        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup, n_instances=200, n_groups=4)
        sensor = common.make_leakydsp(
            setup, common.region_pblock(setup.device, 2), seed=9
        )
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        for _ in ("cold", "warm"):
            engine.characterize_many(
                [sensor], setup.coupling, virus, 2, n_readouts=500, seed=5
            )
            m = engine.last_metrics
            counts = m.cache_summary()
            moved = counts["bytes_read"] + counts["bytes_written"]
            assert moved > 0
            assert m.stage_nbytes_totals()["cache"] == moved
        assert counts["hits"] == 2 and counts["bytes_written"] == 0

    def test_shard_metrics_carry_cache_fields(self, acquisition, tmp_path):
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        shard = engine.last_metrics.shards[0]
        assert shard.cache == "miss"
        assert (
            shard.span.counter("cache_bytes_read")
            + shard.span.counter("cache_bytes_written")
        ) > 0
        assert "cache miss" in shard.summary()
        summary = engine.last_metrics.summary()
        assert "cache 0/3 hits" in summary
        cache_summary = engine.last_metrics.cache_summary()
        assert cache_summary["enabled"] is True
        assert cache_summary["misses"] == 3


# ----------------------------------------------------------------------
# Attack-state snapshots: warm streams replay without re-accumulating
# ----------------------------------------------------------------------


class TestAttackStateSnapshots:
    def _run(self, acquisition, cache_dir, workers=1):
        n_samples = acquisition.default_n_samples()
        engine = Engine(workers=workers, shard_size=SHARD, cache=cache_dir)
        seen = []

        def on_checkpoint(_sensor, end, attack):
            seen.append((end, attack.correlations().copy()))

        [attack] = engine.stream_attack_many(
            [acquisition], N_TRACES, key=KEY,
            consumer_factory=partial(CPAAttack, n_samples),
            seed=3, checkpoints=(200, 400, 600),
            on_checkpoint=on_checkpoint,
        )
        return engine, attack, seen

    def test_warm_stream_replays_bit_identically(self, acquisition, tmp_path):
        cold_engine, cold_attack, cold_points = self._run(
            acquisition, str(tmp_path)
        )
        assert cold_engine.last_metrics.cache_summary()["misses"] == 3

        warm_engine, warm_attack, warm_points = self._run(
            acquisition, str(tmp_path)
        )
        # Replay is served from state snapshots: all hits, no misses.
        assert warm_engine.last_metrics.cache_summary()["hits"] > 0
        assert warm_engine.last_metrics.cache_summary()["misses"] == 0
        assert warm_engine.cache_hit_rate() == 1.0
        assert warm_attack.n_traces == cold_attack.n_traces
        np.testing.assert_array_equal(
            cold_attack.correlations(), warm_attack.correlations()
        )
        assert [e for e, _ in cold_points] == [e for e, _ in warm_points]
        for (_, a), (_, b) in zip(cold_points, warm_points):
            np.testing.assert_array_equal(a, b)

    def test_damaged_snapshot_falls_back_to_blocks(self, acquisition, tmp_path):
        cold_engine, cold_attack, _ = self._run(acquisition, str(tmp_path))
        # Damage every attack-state snapshot; trace blocks stay intact.
        store = cold_engine.cache
        damaged = 0
        for path in list(store._iter_block_paths()):
            key = path.name.split(".")[0]
            block = store._read(key, path)
            if block.meta.get("kind") == "attack-state":
                data = bytearray(path.read_bytes())
                data[-5] ^= 0xFF
                path.write_bytes(bytes(data))
                damaged += 1
        assert damaged > 0

        with pytest.warns(CacheIntegrityWarning):
            warm_engine, warm_attack, _ = self._run(acquisition, str(tmp_path))
        # Fell back to streaming the (intact) trace blocks.
        assert warm_engine.last_metrics.cache_summary()["hits"] == 3
        assert warm_engine.last_metrics.cache_summary()["misses"] == 0
        np.testing.assert_array_equal(
            cold_attack.correlations(), warm_attack.correlations()
        )

    def test_snapshot_writes_are_counted(self, acquisition, tmp_path, monkeypatch):
        """Snapshots the parent publishes count as written bytes on
        every campaign surface, charged to the cache stage."""
        import repro.runtime.engine as engine_mod
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        monkeypatch.setattr(engine_mod, "get_registry", lambda: registry)
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        engine.stream_attack_many(
            [acquisition], N_TRACES, key=KEY,
            consumer_factory=partial(CPAAttack, acquisition.default_n_samples()),
            seed=3, checkpoints=(200, 512, 600),
        )
        written = engine.cache.counters.bytes_written
        m = engine.last_metrics
        counts = m.cache_summary()
        # Three trace blocks and three snapshots (200, 512, 600).
        assert engine.cache.stats().n_blocks == 6
        assert written > 0
        assert engine.cache_totals["bytes_written"] == written
        assert counts["bytes_written"] == written
        assert m.stage_nbytes_totals()["cache"] == counts["bytes_read"] + written
        series = registry.snapshot(deterministic_only=True)["counters"]
        assert series['repro_cache_bytes_total{direction="written"}'] == written

    def test_continuation_is_not_snapshotted(self, acquisition, tmp_path):
        n_samples = acquisition.default_n_samples()
        engine = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [attack] = engine.stream_attack_many(
            [acquisition], N_TRACES, key=KEY,
            consumer_factory=partial(CPAAttack, n_samples), seed=3,
        )
        n_before = engine.cache.stats().n_blocks
        engine.stream_attack_many(
            [acquisition], N_TRACES, key=KEY,
            consumer_factory=partial(CPAAttack, n_samples), seed=11,
            consumers=[attack],
        )
        store = engine.cache
        new_states = [
            p
            for p in store._iter_block_paths()
            if store._read(p.name.split(".")[0], p).meta.get("kind")
            == "attack-state"
            and store._read(p.name.split(".")[0], p).meta.get("n_traces")
            == N_TRACES
        ]
        # The first (fresh) run snapshotted its end state; the
        # continuation must not publish states of its own.
        assert engine.cache.stats().n_blocks == n_before + 3  # new trace blocks
        assert len(new_states) == 1

    def test_state_round_trip_is_exact(self):
        rng = np.random.default_rng(0)
        attack = CPAAttack(12, sample_window=(2, 9))
        traces = rng.integers(0, 48, size=(50, 12)).astype(np.int16)
        cts = rng.integers(0, 256, size=(50, 16), dtype=np.uint8)
        attack.add_traces(traces, cts)
        clone = CPAAttack(12, sample_window=(2, 9))
        clone.load_state_arrays(attack.state_arrays())
        assert clone.n_traces == attack.n_traces
        np.testing.assert_array_equal(
            attack.correlations(), clone.correlations()
        )
        assert attack.cache_token() == clone.cache_token()
        assert attack.cache_token() != CPAAttack(12).cache_token()


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------


def _collect_traces(acquisition, cache_dir, seed):
    engine = Engine(workers=1, shard_size=SHARD, cache=cache_dir)
    [ts] = engine.collect_many([acquisition], N_TRACES, key=KEY, seed=seed)
    return ts.traces


class TestConcurrentWriters:
    def test_two_engines_share_a_store_without_torn_blocks(
        self, acquisition, tmp_path
    ):
        acquisition.sensor.precompute_moments()
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_collect_traces, acquisition, str(tmp_path), 3)
                for _ in range(2)
            ]
            results = [f.result() for f in futures]
        np.testing.assert_array_equal(results[0], results[1])

        store = BlockStore(tmp_path)
        report = store.verify()
        assert report.ok, report.bad
        assert store.stats().n_blocks == 3
        leftovers = [
            p
            for sub in tmp_path.iterdir() if sub.is_dir()
            for p in sub.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

        warm = Engine(workers=1, shard_size=SHARD, cache=str(tmp_path))
        [again] = warm.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        assert warm.last_metrics.cache_summary()["hits"] == 3
        np.testing.assert_array_equal(results[0], again.traces)


# ----------------------------------------------------------------------
# TraceSet compression option
# ----------------------------------------------------------------------


class TestTraceSetCompress:
    def _make(self):
        rng = np.random.default_rng(0)
        return TraceSet(
            traces=rng.integers(0, 48, size=(100, 20)).astype(np.int16),
            plaintexts=rng.integers(0, 256, size=(100, 16), dtype=np.uint8),
            ciphertexts=rng.integers(0, 256, size=(100, 16), dtype=np.uint8),
            key=np.frombuffer(KEY, dtype=np.uint8),
            metadata={"sensor": "LeakyDSP"},
        )

    def test_uncompressed_round_trip(self, tmp_path):
        ts = self._make()
        path = tmp_path / "fast.npz"
        ts.save(path, compress=False)
        loaded = TraceSet.load(path)
        np.testing.assert_array_equal(ts.traces, loaded.traces)
        np.testing.assert_array_equal(ts.ciphertexts, loaded.ciphertexts)
        assert loaded.metadata == ts.metadata

    def test_default_stays_compressed(self, tmp_path):
        ts = self._make()
        small = tmp_path / "small.npz"
        big = tmp_path / "big.npz"
        ts.save(small)
        ts.save(big, compress=False)
        assert small.stat().st_size < big.stat().st_size
        np.testing.assert_array_equal(
            TraceSet.load(small).traces, TraceSet.load(big).traces
        )


# ----------------------------------------------------------------------
# CLI and registry wiring
# ----------------------------------------------------------------------


class TestCacheCLI:
    def test_stats_verify_clear(self, tmp_path, capsys):
        from repro.cli import main

        store = BlockStore(tmp_path)
        store.put(block_key({"cli": 1}), {"x": np.zeros(16, dtype=np.int16)})

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "1 blocks" in capsys.readouterr().out

        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "1 blocks ok, 0 bad" in capsys.readouterr().out

        path = _first_block_path(store)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        assert "1 bad" in capsys.readouterr().out
        assert (
            main(
                ["cache", "verify", "--delete-bad", "--cache-dir", str(tmp_path)]
            )
            == 1
        )
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert store.stats().n_blocks == 0

    def test_cache_without_directory_fails(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_verify_missing_directory_fails(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "no-such-cache"
        assert main(["cache", "verify", "--cache-dir", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"error: no block cache at {missing}"
        assert "blocks ok" not in captured.out
        assert not missing.exists()

    def test_cache_dir_from_environment(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stats"]) == 0
        assert "0 blocks" in capsys.readouterr().out


class TestRegistryCacheConfig:
    def test_env_fallback(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = registry.ExperimentConfig(scale="quick")
        assert config.cache_dir == str(tmp_path)
        engine = config.make_engine()
        assert engine.cache is not None
        assert engine.cache.root == tmp_path

    def test_default_is_off(self, monkeypatch):
        from repro.experiments import registry

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        config = registry.ExperimentConfig(scale="quick")
        assert config.cache_dir is None
        assert config.make_engine().cache is None

    def test_run_reports_cache_metadata(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        config = registry.ExperimentConfig(
            scale="quick", cache_dir=str(tmp_path)
        )
        result = registry.run("fig3", config)
        cache = result.metadata.get("cache")
        assert cache is not None
        assert cache["hits"] + cache["misses"] >= 0
        assert 0.0 <= cache["hit_rate"] <= 1.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sensor_zoo_identical_off_cold_warm(self, tmp_path, monkeypatch, workers):
        # The zoo includes the RO counter sensor, whose block key cannot
        # come from a moments table.
        from repro.experiments import registry

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)

        def run(cache_dir=None):
            return registry.run(
                "sensor-zoo",
                registry.ExperimentConfig(
                    scale="quick", seed=1, workers=workers, cache_dir=cache_dir
                ),
            )

        off = run()
        cold = run(str(tmp_path))
        warm = run(str(tmp_path))
        assert off.payload == cold.payload == warm.payload
        assert cold.metadata["cache"]["hits"] == 0
        assert warm.metadata["cache"]["misses"] == 0
        assert warm.metadata["cache"]["hit_rate"] == 1.0
