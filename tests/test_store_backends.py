"""Tests for the tiered remote block store and the shard scheduler.

The load-bearing properties extend the blockstore contract across a
wire: remote cache state (off, cold, warm, corrupted, *down*) can never
change a result — only its cost.  Bytes that crossed the network are
digest-verified before the local tier trusts them; a dead server
degrades to local-only with a warning, never a crash; and the
work-stealing schedule reorders only *when* shards run, never what
they compute.
"""

import multiprocessing
import os
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.calibration import calibrate
from repro.core.leaky_dsp import LeakyDSP
from repro.errors import CacheError, CacheIntegrityWarning, RemoteCacheError
from repro.fpga.placement import Pblock, Placer
from repro.pdn.coupling import CouplingModel
from repro.runtime import Engine
from repro.runtime.scheduler import (
    RESULT_SEGMENT_PREFIX,
    SCHEDULES,
    RemotePrefetcher,
    ShardTask,
    _decode_results,
    _encode_results,
    classify_tasks,
    dispatch,
    flatten_keys,
    static_groups,
    steal_order,
    validate_schedule,
)
from repro.runtime.sharding import Shard
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AcquisitionSpec
from repro.traces.blockstore import BlockStore, open_store, verify_blob
from repro.traces.store_backends import (
    CacheServer,
    HTTPBackend,
    LocalDirBackend,
    StoreBackend,
    TieredStore,
    contains_many,
    validate_key,
)
from repro.victims.aes import AESHardwareModel

KEY = bytes(range(16))
N_TRACES = 600
SHARD = 256  # -> 3 shards

K1 = "a" * 64
K2 = "b" * 64
K3 = "c" * 64


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


@pytest.fixture()
def server(tmp_path):
    with CacheServer(tmp_path / "served", port=0) as srv:
        yield srv


def _make_blob(store_dir, key=K1):
    """A valid serialized block blob (via a scratch BlockStore)."""
    scratch = BlockStore(store_dir)
    scratch.put(key, {"x": np.arange(8, dtype=np.int16)})
    return scratch.backend.get_blob(key)


# ----------------------------------------------------------------------
# Backend protocol + local backend
# ----------------------------------------------------------------------


class TestLocalDirBackend:
    def test_roundtrip(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        assert isinstance(backend, StoreBackend)
        assert backend.get_blob(K1) is None
        assert not backend.contains(K1)
        backend.put_blob(K1, b"payload")
        assert backend.contains(K1)
        assert backend.get_blob(K1) == b"payload"
        assert backend.delete(K1)
        assert not backend.delete(K1)
        assert backend.get_blob(K1) is None

    def test_put_leaves_no_tmp_files(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put_blob(K1, b"x" * 100)
        leftovers = [
            p
            for sub in tmp_path.iterdir() if sub.is_dir()
            for p in sub.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_validate_key_rejects_traversal(self):
        for bad in ("", "abc", "../" + "a" * 61, "A" * 64, K1 + "x"):
            with pytest.raises(CacheError):
                validate_key(bad)
        assert validate_key(K1) == K1


# ----------------------------------------------------------------------
# HTTP backend against a live server
# ----------------------------------------------------------------------


class TestHTTPBackend:
    def test_roundtrip_and_batch_contains(self, tmp_path, server):
        blob = _make_blob(tmp_path / "scratch")
        backend = HTTPBackend(server.url)
        assert backend.ping()
        assert backend.get_blob(K1) is None
        backend.put_blob(K1, blob)
        assert backend.contains(K1)
        assert backend.get_blob(K1) == blob
        present = contains_many(backend, [K1, K2])
        assert present == {K1: True, K2: False}
        stats = backend.stats()
        assert stats["n_blocks"] == 1
        assert stats["counters"]["puts"] == 1
        assert backend.delete(K1)
        assert not backend.contains(K1)

    def test_forked_child_abandons_inherited_connection(self, tmp_path, server):
        """Regression: a forked engine worker inherits the parent's
        keep-alive socket; speaking on it would interleave two
        processes' requests on one TCP stream (corrupted reads)."""
        blob = _make_blob(tmp_path / "scratch")
        backend = HTTPBackend(server.url)
        backend.put_blob(K1, blob)
        inherited = backend._local.conn
        assert inherited is not None
        backend._local.pid = -1  # what a forked child observes
        assert backend.get_blob(K1) == blob
        assert backend._local.conn is not inherited

        # And through a real fork: the child must answer correctly
        # without poisoning the parent's connection.
        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()

        def child():
            queue.put(backend.get_blob(K1) == blob)

        proc = ctx.Process(target=child)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0 and queue.get() is True
        assert backend.get_blob(K1) == blob  # parent connection intact

    def test_server_rejects_damaged_put(self, tmp_path, server):
        blob = bytearray(_make_blob(tmp_path / "scratch"))
        blob[-1] ^= 0xFF  # flip a payload byte: digest no longer matches
        backend = HTTPBackend(server.url)
        with pytest.raises(RemoteCacheError, match="rejected"):
            backend.put_blob(K1, bytes(blob))
        assert not backend.contains(K1)
        assert backend.stats()["counters"]["rejected_puts"] == 1

    def test_server_rejects_misaddressed_put(self, tmp_path, server):
        blob = _make_blob(tmp_path / "scratch", key=K1)
        backend = HTTPBackend(server.url)
        with pytest.raises(RemoteCacheError):
            backend.put_blob(K2, blob)  # valid blob, wrong address
        assert not backend.contains(K2)

    def test_dead_server_raises_remote_cache_error(self):
        backend = HTTPBackend("http://127.0.0.1:1", timeout=0.2, retries=0)
        assert not backend.ping()
        with pytest.raises(RemoteCacheError):
            backend.get_blob(K1)


# ----------------------------------------------------------------------
# Tiered store semantics
# ----------------------------------------------------------------------


class TestTieredStore:
    def test_read_through_ingests_then_hits_locally(self, tmp_path, server):
        a = TieredStore(tmp_path / "a", remote=server.url)
        a.put(K1, {"x": np.arange(8, dtype=np.int16)})
        a.flush()
        assert a.counters.remote_puts == 1

        b = TieredStore(tmp_path / "b", remote=server.url)
        block = b.get(K1)
        assert block is not None
        np.testing.assert_array_equal(block.arrays["x"], np.arange(8))
        assert b.counters.remote_hits == 1
        assert b.counters.hits == 0
        assert b.counters.remote_bytes_read > 0
        # Now local: the second read never touches the wire.
        assert b.get(K1) is not None
        assert b.counters.hits == 1
        assert b.counters.remote_hits == 1

    def test_remote_ingest_verifies_digest(self, tmp_path, server):
        a = TieredStore(tmp_path / "a", remote=server.url)
        a.put(K1, {"x": np.arange(8, dtype=np.int16)})
        a.flush()
        # Corrupt the blob *behind* the server: the wire now delivers
        # damaged bytes with a valid HTTP 200 around them.
        path = server.store.path_for(K1)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

        b = TieredStore(tmp_path / "b", remote=server.url)
        with pytest.warns(CacheIntegrityWarning, match="damaged remote block"):
            block = b.get(K1)
        assert block is None  # quarantined -> honest miss, shard re-acquires
        assert b.counters.integrity_failures == 1
        assert b.counters.misses == 1
        assert not b.backend.contains(K1)  # never ingested locally

    def test_write_behind_publishes_after_flush(self, tmp_path, server):
        store = TieredStore(tmp_path / "a", remote=server.url)
        store.put(K1, {"x": np.arange(4, dtype=np.int16)})
        store.flush()
        assert store.counters.remote_puts == 1
        assert HTTPBackend(server.url).contains(K1)
        store.close()

    def test_publish_skips_blocks_the_remote_already_has(self, tmp_path, server):
        a = TieredStore(tmp_path / "a", remote=server.url)
        a.put(K1, {"x": np.arange(4, dtype=np.int16)})
        a.flush()
        b = TieredStore(tmp_path / "b", remote=server.url)
        b.put(K1, {"x": np.arange(4, dtype=np.int16)})
        b.flush()
        assert b.counters.remote_publish_skipped == 1
        assert b.counters.remote_puts == 0

    def test_publish_racing_local_eviction_drops_cleanly(self, tmp_path, server):
        """A block evicted before its upload ran is dropped, not crashed
        on — the satellite race: publish_async vs the local LRU."""
        store = TieredStore(tmp_path / "a", remote=server.url)
        store.put(K2, {"x": np.arange(4, dtype=np.int16)})
        store.flush()
        # Evict K2's file out from under a fresh publish request.
        store.backend.delete(K2)
        store.publish_async([K3])  # K3 was never put locally at all
        store.flush()
        assert store.counters.remote_publish_dropped == 1
        store.close()

    def test_dead_remote_degrades_to_local_with_one_warning(self, tmp_path):
        store = TieredStore(
            tmp_path / "a", remote=HTTPBackend(
                "http://127.0.0.1:1", timeout=0.2, retries=0
            ),
        )
        with pytest.warns(RuntimeWarning, match="degraded to local-only"):
            assert store.get(K1) is None
        assert store.counters.remote_errors >= 1
        assert store.counters.misses == 1
        errors_so_far = store.counters.remote_errors
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert store.get(K1) is None  # warns once, counts every time
        assert store.counters.remote_errors == errors_so_far + 1
        # Local tier still fully functional.
        store.put(K2, {"x": np.arange(4, dtype=np.int16)})
        assert store.get(K2) is not None

    def test_tiers_of_classifies_all_three_states(self, tmp_path, server):
        a = TieredStore(tmp_path / "a", remote=server.url)
        a.put(K1, {"x": np.arange(4, dtype=np.int16)})  # local + remote
        a.flush()
        b = TieredStore(tmp_path / "b", remote=server.url)
        b.put(K2, {"x": np.arange(4, dtype=np.int16)})  # local only (b)
        tiers = b.tiers_of([K1, K2, K3])
        assert tiers == {K1: "remote", K2: "local", K3: None}
        assert b.tier_of(K1) == "remote"
        b.close()

    def test_fetch_is_counter_neutral(self, tmp_path, server):
        a = TieredStore(tmp_path / "a", remote=server.url)
        a.put(K1, {"x": np.arange(4, dtype=np.int16)})
        a.flush()
        b = TieredStore(tmp_path / "b", remote=server.url)
        outcome, nbytes = b.fetch(K1)
        assert outcome == "fetched" and nbytes > 0
        assert b.fetch(K1) == ("local", 0)
        assert b.fetch(K3) == ("absent", 0)
        assert b.counters.hits == b.counters.misses == 0
        assert b.counters.remote_hits == b.counters.remote_misses == 0
        # The eventual get is a plain local hit.
        assert b.get(K1) is not None
        assert b.counters.hits == 1

    def test_open_store_builds_tiered(self, tmp_path, server):
        store = open_store(str(tmp_path / "t"), remote=server.url)
        assert isinstance(store, TieredStore)
        assert store.root == tmp_path / "t"
        plain = open_store(str(tmp_path / "p"))
        assert isinstance(plain, BlockStore)
        assert not isinstance(plain, TieredStore)

    def test_for_worker_turns_publishing_off(self, tmp_path, server):
        store = TieredStore(tmp_path / "a", remote=server.url)
        view = store.for_worker()
        assert view.publish_mode == "off"
        view.put(K1, {"x": np.arange(4, dtype=np.int16)})
        view.flush()
        assert view.counters.remote_puts == 0
        assert not HTTPBackend(server.url).contains(K1)
        # The parent can still publish that locally-present block.
        store.publish_async([K1])
        store.flush()
        assert HTTPBackend(server.url).contains(K1)
        store.close()

    def test_provenance_recorded_on_put(self, tmp_path):
        store = BlockStore(tmp_path)
        store.put(K1, {"x": np.arange(4, dtype=np.int16)})
        block = store.get(K1)
        prov = block.meta["provenance"]
        assert prov["backend"].startswith("dir:")
        assert prov["schema"] == 1
        assert prov["host"]

    def test_verify_blob_checks_key_and_digest(self, tmp_path):
        from repro.traces.blockstore import read_blob_header

        blob = _make_blob(tmp_path / "scratch", key=K1)
        header = verify_blob(blob, key=K1)
        assert header["schema"] == 1
        with pytest.raises(ValueError):
            verify_blob(blob, key=K2)
        _, payload_start = read_blob_header(blob)
        damaged = bytearray(blob)
        damaged[payload_start] ^= 0xFF  # first *payload* byte, not padding
        with pytest.raises(ValueError):
            verify_blob(bytes(damaged), key=K1)


# ----------------------------------------------------------------------
# Scheduler primitives
# ----------------------------------------------------------------------


def _tasks(n, keyed=True):
    return [
        ShardTask(
            i,
            Shard(index=i, start=i * 10, stop=(i + 1) * 10),
            np.random.SeedSequence(i),
            key=f"{i:064x}" if keyed else None,
        )
        for i in range(n)
    ]


def _array_task(shard, seq, key):
    """A pool task with a result worth freeing."""
    return np.full(4096, shard.index, dtype=np.int64)


class TestSchedulerPrimitives:
    def test_validate_schedule(self):
        assert validate_schedule("stealing") == "stealing"
        assert validate_schedule("static") == "static"
        with pytest.raises(Exception):
            validate_schedule("round-robin")

    def test_flatten_keys(self):
        assert flatten_keys(None) == []
        assert flatten_keys(K1) == [K1]
        assert flatten_keys((K1, None, K2)) == [K1, K2]

    def test_classify_against_store_tiers(self, tmp_path, server):
        a = TieredStore(tmp_path / "a", remote=server.url)
        tasks = _tasks(3)
        a.put(tasks[0].key, {"x": np.arange(4, dtype=np.int16)})  # local+remote
        a.flush()
        b = TieredStore(tmp_path / "b", remote=server.url)
        b.put(tasks[1].key, {"x": np.arange(4, dtype=np.int16)})  # local only
        classes, tiers = classify_tasks(b, tasks)
        assert classes == ["remote", "local", "cold"]
        assert tiers[tasks[0].key] == "remote"
        b.close()

    def test_fanout_shard_class_is_the_cost_to_complete(self, tmp_path):
        store = BlockStore(tmp_path)
        store.put(K1, {"x": np.arange(4, dtype=np.int16)})
        tasks = [
            ShardTask(0, Shard(index=0, start=0, stop=10),
                      np.random.SeedSequence(0), key=(K1, K2)),
            ShardTask(1, Shard(index=1, start=10, stop=20),
                      np.random.SeedSequence(1), key=(K1, K1)),
        ]
        classes, _ = classify_tasks(store, tasks)
        assert classes == ["cold", "local"]  # any cold sub-block -> cold

    def test_steal_order_cold_first_remote_last(self):
        tasks = _tasks(4)
        classes = ["local", "cold", "remote", "cold"]
        assert steal_order(tasks, classes) == [1, 3, 0, 2]
        assert steal_order(tasks, None) == [0, 1, 2, 3]

    def test_static_groups_are_contiguous_and_balanced(self):
        assert static_groups(7, 3) == [[0, 1, 2], [3, 4], [5, 6]]
        assert static_groups(2, 8) == [[0], [1]]
        assert static_groups(3, 1) == [[0, 1, 2]]

    def test_serial_dispatch_preserves_plan_order(self):
        tasks = _tasks(5, keyed=False)
        seen = [
            task.position
            for task, _ in dispatch(
                tasks, workers=1, schedule="stealing",
                task=lambda shard, seq, key: shard.index,
                pool_initializer=None, pool_initargs=(),
            )
        ]
        assert seen == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_pool_dispatch_frees_each_result_once_consumed(self, schedule):
        """Dispatch keeps no yielded result: once the consumer drops
        result k and pulls k + 1, result k is gone."""
        previous = None
        for task, result in dispatch(
            _tasks(6, keyed=False), workers=2, schedule=schedule,
            task=_array_task, pool_initializer=None, pool_initargs=(),
        ):
            assert previous is None or previous() is None
            assert result[0] == task.shard.index
            previous = weakref.ref(result)
        del result
        assert previous() is None

    def test_result_encoding_round_trips_through_one_segment(self):
        name = f"{RESULT_SEGMENT_PREFIX}test_{os.getpid()}_round_trip"
        results = [{"x": np.arange(5, dtype=np.int16)}, np.eye(3), "meta"]
        payload = _encode_results(results, name)
        assert payload[1] == name and len(payload[2]) == 2
        assert os.path.exists(f"/dev/shm/{name}")
        got = _decode_results(payload)
        assert not os.path.exists(f"/dev/shm/{name}")  # unlinked at once
        np.testing.assert_array_equal(got[0]["x"], results[0]["x"])
        np.testing.assert_array_equal(got[1], results[1])
        assert got[2] == "meta"
        assert _decode_results(_encode_results(["meta"], name)) == ["meta"]

    def test_worker_side_failure_unlinks_its_segment(self, monkeypatch):
        name = f"{RESULT_SEGMENT_PREFIX}test_{os.getpid()}_failure"

        def full_disk(fd, size):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "ftruncate", full_disk)
        with pytest.raises(OSError):
            _encode_results([np.ones(8)], name)
        assert not os.path.exists(f"/dev/shm/{name}")

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_pool_dispatch_bounds_unconsumed_shards(self, schedule, monkeypatch):
        """A consumer slower than its workers never has more than
        workers + 1 shards submitted and not yet consumed, and still
        gets every shard once."""
        submitted = []
        real_submit = ProcessPoolExecutor.submit

        def counting_submit(pool, *args, **kwargs):
            submitted.append(args)
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        consumed = []
        for task, _ in dispatch(
            _tasks(8, keyed=False), workers=2, schedule=schedule,
            task=_array_task, pool_initializer=None, pool_initargs=(),
        ):
            assert len(submitted) - len(consumed) <= 3
            time.sleep(0.05)
            consumed.append(task.position)
        assert sorted(consumed) == list(range(8))

    def test_prefetcher_pulls_remote_keys(self, tmp_path, server):
        a = TieredStore(tmp_path / "a", remote=server.url)
        keys = [f"{i:064x}" for i in range(3)]
        for k in keys:
            a.put(k, {"x": np.arange(4, dtype=np.int16)})
        a.flush()
        b = TieredStore(tmp_path / "b", remote=server.url)
        prefetcher = RemotePrefetcher(b, keys + [K3], threads=2)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            snap = prefetcher.snapshot()
            if snap["prefetch_fetched"] + snap["prefetch_missed"] == 4:
                break
            time.sleep(0.01)
        prefetcher.stop()
        snap = prefetcher.snapshot()
        assert snap["prefetch_fetched"] == 3
        assert snap["prefetch_missed"] == 1
        assert snap["prefetch_bytes"] > 0
        for k in keys:
            assert b.backend.contains(k)
        b.close()


# ----------------------------------------------------------------------
# Engine integration: schedules, tiers, bit-identity
# ----------------------------------------------------------------------


class TestEngineSchedules:
    def test_bit_identical_across_schedules_and_tiers(
        self, acquisition, tmp_path, server
    ):
        [reference] = Engine(workers=1, shard_size=SHARD).collect_many(
            [acquisition], N_TRACES, key=KEY, seed=3
        )
        # Host A fills the remote tier through a tiered store.
        a = Engine(
            workers=2, shard_size=SHARD,
            cache=open_store(str(tmp_path / "a"), remote=server.url),
        )
        [cold] = a.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        np.testing.assert_array_equal(reference.traces, cold.traces)
        assert a.cache_totals["misses"] == 3
        assert a.cache_totals["remote_puts"] == 3
        assert server.store.stats().n_blocks == 3

        # Host B: empty local tier, warm remote, both schedules.
        for schedule in ("stealing", "static"):
            b = Engine(
                workers=2, shard_size=SHARD, schedule=schedule,
                cache=open_store(
                    str(tmp_path / f"b-{schedule}"), remote=server.url
                ),
            )
            [warm] = b.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
            np.testing.assert_array_equal(reference.traces, warm.traces)
            assert b.cache_totals["misses"] == 0
            # Every block crossed the wire at least once (prefetcher or
            # worker read-through; a racing pair may both pull a key).
            remote_served = (
                b.cache_totals["remote_hits"]
                + b.cache_totals["prefetch_fetched"]
            )
            assert remote_served >= 3
            # Each shard's *read* is exactly one hit: local (prefetch
            # won) or remote (read-through won).
            assert b.cache_totals["hits"] + b.cache_totals["remote_hits"] == 3

    def test_read_through_shard_counts_once(
        self, acquisition, tmp_path, server, monkeypatch
    ):
        # With prefetch starved, every shard of host B is served by
        # worker read-through: a remote-served shard, not a local hit.
        from repro.runtime import engine as engine_mod

        real = engine_mod.RemotePrefetcher
        monkeypatch.setattr(
            engine_mod, "RemotePrefetcher", lambda store, keys: real(store, [])
        )
        Engine(
            workers=1, shard_size=SHARD,
            cache=open_store(str(tmp_path / "a"), remote=server.url),
        ).collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        b = Engine(
            workers=1, shard_size=SHARD,
            cache=open_store(str(tmp_path / "b"), remote=server.url),
        )
        b.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        totals = b.cache_totals
        assert totals["hits"] == 0
        assert totals["remote_served"] == totals["remote_hits"] == 3
        assert totals["misses"] == totals["prefetch_fetched"] == 0
        assert b.cache_hit_rate() == b.last_metrics.cache_hit_rate == 1.0
        assert b.last_metrics.cache_summary()["remote_served"] == 3

    def test_remote_split_is_per_shard_at_fanout(self):
        # At N sensors a shard reads N sub-blocks; the local/remote
        # split still counts each served shard exactly once.
        from repro.runtime.metrics import EngineMetrics, ShardMetrics
        from repro.telemetry.spans import SpanRecord

        def served(index, remote_sub_hits):
            counters = {"cache_sub_hits": 5}
            if remote_sub_hits:
                counters["cache_remote_hits"] = remote_sub_hits
            return ShardMetrics(
                shard_index=index, n_items=SHARD, seconds=0.0,
                span=SpanRecord(
                    name="shard", start=0.0, attrs={"cache": "hit"},
                    counters=counters,
                ),
            )

        metrics = EngineMetrics(
            kind="stream", n_items=3 * SHARD, n_shards=3, workers=1,
            shards=[served(0, 0), served(1, 5), served(2, 2)],
        )
        summary = metrics.cache_summary()
        assert summary["hits"] == 1
        assert summary["remote_served"] == 2
        assert summary["remote_hits"] == 7
        assert metrics.cache_hit_rate == 1.0

    def test_static_schedule_matches_stealing_serially(
        self, acquisition, tmp_path
    ):
        stealing = Engine(
            workers=1, shard_size=SHARD, cache=str(tmp_path / "s1"),
            schedule="stealing",
        ).collect_many([acquisition], N_TRACES, key=KEY, seed=3)[0]
        static = Engine(
            workers=1, shard_size=SHARD, cache=str(tmp_path / "s2"),
            schedule="static",
        ).collect_many([acquisition], N_TRACES, key=KEY, seed=3)[0]
        np.testing.assert_array_equal(stealing.traces, static.traces)

    def test_pool_static_bit_identical_warm_and_cold(
        self, acquisition, tmp_path
    ):
        [reference] = Engine(workers=1, shard_size=SHARD).collect_many(
            [acquisition], N_TRACES, key=KEY, seed=3
        )
        engine = Engine(
            workers=2, shard_size=SHARD, cache=str(tmp_path),
            schedule="static",
        )
        [cold] = engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        [warm] = engine.collect_many([acquisition], N_TRACES, key=KEY, seed=3)
        np.testing.assert_array_equal(reference.traces, cold.traces)
        np.testing.assert_array_equal(reference.traces, warm.traces)
        assert engine.cache_totals["hits"] == 3
        assert engine.cache_totals["misses"] == 3

    def test_stream_attack_over_remote_tier(self, acquisition, tmp_path, server):
        from functools import partial

        from repro.attacks.cpa import CPAAttack

        n_samples = acquisition.default_n_samples()
        factory = partial(CPAAttack, n_samples)
        [baseline] = Engine(workers=1, shard_size=SHARD).stream_attack_many(
            [acquisition], N_TRACES, key=KEY,
            consumer_factory=factory, seed=3,
        )
        a = Engine(
            workers=1, shard_size=SHARD,
            cache=open_store(str(tmp_path / "a"), remote=server.url),
        )
        a.stream_attack_many(
            [acquisition], N_TRACES, key=KEY, consumer_factory=factory, seed=3
        )
        # Host B replays acquisition blocks from the remote tier (the
        # attack-state snapshots also published; either way the folded
        # correlations must be bit-identical).
        b = Engine(
            workers=2, shard_size=SHARD,
            cache=open_store(str(tmp_path / "b"), remote=server.url),
        )
        [replay] = b.stream_attack_many(
            [acquisition], N_TRACES, key=KEY, consumer_factory=factory, seed=3
        )
        np.testing.assert_array_equal(
            baseline.correlations(), replay.correlations()
        )
        assert b.cache_totals["misses"] == 0

    def test_remote_counters_reach_run_metadata(
        self, acquisition, tmp_path, server, monkeypatch
    ):
        from repro.experiments import registry

        monkeypatch.setenv("REPRO_REMOTE_CACHE", server.url)
        config = registry.ExperimentConfig(
            scale="quick", workers=1,
            cache_dir=str(tmp_path / "runcache"),
            run_dir=str(tmp_path / "run"),
        )
        assert config.remote_cache == server.url
        result = registry.run("fig3", config)
        cache = result.metadata["cache"]
        assert "remote_hits" in cache and "remote_puts" in cache
        import json

        manifest = json.loads(
            (tmp_path / "run" / "manifest.json").read_text()
        )
        prov = manifest["cache_provenance"]
        assert prov["remote"].startswith("http:")
        assert prov["schedule"] == "stealing"
        assert prov["backend"].startswith("dir:")

    def test_schedule_is_validated(self, tmp_path):
        with pytest.raises(Exception):
            Engine(workers=2, schedule="round-robin")
