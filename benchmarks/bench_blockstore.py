"""Bench: the tiered block store and the work-stealing shard schedule.

Not a paper figure — a performance benchmark of the fleet-cache layer.
Two parts:

* **Blob throughput.**  Raw ``BlockStore`` put/get bandwidth on
  shard-sized blocks (the floor under every warm replay).
* **50/50 campaign.**  A campaign whose first half is cache-warm and
  second half cold — the canonical fleet shape (a grown experiment
  resuming past a warmed prefix).  Static contiguous partitioning
  hands one worker all the warm shards and the other all the cold
  ones; the work-stealing schedule orders cold shards first and lets
  both workers drain them.  Both runs are asserted bit-identical
  before the numbers are trusted, and with >=2 cores the stealing
  schedule must beat static by >= 1.3x.

A third row traces one ``BlockStore.put`` of a fan-out sub-block
(4096 x 195 int16 readouts plus plaintexts and ciphertexts, 1.73 MB)
with :mod:`tracemalloc` and fails when its transient peak exceeds
``MAX_PUT_TRANSIENT_BYTES``: a put publishes from views of the arrays
and must never build a whole-block copy.  The file it writes is first
asserted byte-identical to an inline copy of the joined serializer
that built each block as one ``bytes``.  A byte count, not a ratio, so
the gate holds on any host.

Records machine-readable numbers in ``BENCH_blockstore.json`` next to
``BENCH_cpa.json``; CI gates on the stealing speedup and the put's
transient bytes.
"""

import hashlib
import json
import os
import shutil
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
from conftest import full_scale, run_once

from repro.experiments import common
from repro.experiments.table1_traces import DEFAULT_KEY
from repro.runtime import Engine
from repro.traces.acquisition import AcquisitionSpec
from repro.traces import blockstore
from repro.traces.blockstore import BlockStore, block_key

N_TRACES = 480_000 if full_scale() else 240_000
N_SHARDS = 8
SHARD = N_TRACES // N_SHARDS
WORKERS = 2
ROUNDS = 3 if full_scale() else 2
MIN_STEALING_SPEEDUP = 1.3
#: Rows and samples of the traced sub-block (the fan-out campaign's).
PUT_ROWS, PUT_SAMPLES = 4096, 195
#: Budget for one sub-block put's traced transient bytes: ~16x the
#: ~8 KB a copy-free put measures (header, views, key strings), and
#: far below one copy of the 1.6 MB readouts.
MAX_PUT_TRANSIENT_BYTES = 128 * 1024
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_blockstore.json"


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


def _blob_throughput(root: Path) -> dict:
    """Raw put/get bandwidth on shard-sized blocks."""
    store = BlockStore(root)
    rng = np.random.default_rng(0)
    payloads = [
        {"traces": rng.integers(-512, 512, size=(SHARD, 45), dtype=np.int16)}
        for _ in range(4)
    ]
    keys = [block_key({"bench": i}) for i in range(len(payloads))]
    n_bytes = sum(p["traces"].nbytes for p in payloads)

    t0 = time.perf_counter()
    for key, payload in zip(keys, payloads):
        store.put(key, payload)
    put_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for key in keys:
        block = store.get(key, expect=True)
        assert block is not None
    get_seconds = time.perf_counter() - t0
    return {
        "block_bytes": n_bytes // len(payloads),
        "put_mb_per_second": n_bytes / 1e6 / put_seconds,
        "get_mb_per_second": n_bytes / 1e6 / get_seconds,
    }


def _joined_serialize(key, arrays, meta) -> bytes:
    """The serializer the copy-free put replaced: every array's
    ``tobytes`` and pad joined into one payload, the header prepended."""
    pad = blockstore._pad
    specs, parts, offset = [], [], 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        data = array.tobytes()
        specs.append({
            "name": str(name), "dtype": array.dtype.str,
            "shape": list(array.shape), "offset": offset, "nbytes": len(data),
        })
        parts += [data, b"\x00" * pad(len(data))]
        offset += len(data) + pad(len(data))
    payload = b"".join(parts)
    header = json.dumps({
        "schema": blockstore.SCHEMA_VERSION,
        "key": key,
        "arrays": specs,
        "payload_nbytes": len(payload),
        "digest": hashlib.sha256(payload).hexdigest(),
        "meta": blockstore._canonical(meta),
    }, sort_keys=True).encode()
    head = blockstore.MAGIC + struct.pack("<Q", len(header)) + header
    return head + b"\x00" * pad(len(head)) + payload


def _put_transient(root: Path) -> dict:
    """Traced transient peak of one fan-out sub-block put, after the
    file it writes is checked against the joined serializer."""
    store = BlockStore(root)
    rng = np.random.default_rng(1)
    arrays = {
        "traces": rng.integers(
            -512, 512, size=(PUT_ROWS, PUT_SAMPLES), dtype=np.int16
        ),
        "pts": rng.integers(0, 256, size=(PUT_ROWS, 16), dtype=np.uint8),
        "cts": rng.integers(0, 256, size=(PUT_ROWS, 16), dtype=np.uint8),
    }
    meta = {"fanout": {"n_sensors": 5}, "provenance": store.provenance()}
    warm_key, key = block_key({"put": 0}), block_key({"put": 1})
    store.put(warm_key, arrays, meta=meta)  # first-use costs untraced
    tracemalloc.start()
    store.put(key, arrays, meta=meta)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    written = store.path_for(key).read_bytes()
    assert written == _joined_serialize(key, arrays, meta)
    return {
        "block_bytes": len(written),
        "peak_transient_bytes": peak,
    }


def test_blockstore_schedule_report(benchmark, tmp_path):
    """Warm the first half of a campaign once, then time the full
    campaign under both shard schedules from identical cache state
    (the warm directory is copied per round) and write
    ``BENCH_blockstore.json``."""
    acq = _make_acquisition()

    # One cold fill of the campaign's first half.  Shard keys depend
    # only on (config, seed lineage, geometry), so a half-campaign
    # fills exactly the first N_SHARDS/2 blocks of the full one.
    warm_dir = tmp_path / "warm"
    Engine(workers=WORKERS, shard_size=SHARD, cache=str(warm_dir)).collect_many(
        [acq], N_TRACES // 2, key=DEFAULT_KEY, seed=3
    )
    n_warm = BlockStore(warm_dir).stats().n_blocks
    assert n_warm == N_SHARDS // 2

    def timed_pass(schedule, round_index):
        cache_dir = tmp_path / f"{schedule}-{round_index}"
        shutil.copytree(warm_dir, cache_dir)
        engine = Engine(
            workers=WORKERS,
            shard_size=SHARD,
            cache=str(cache_dir),
            schedule=schedule,
        )
        t0 = time.perf_counter()
        [result] = engine.collect_many([acq], N_TRACES, key=DEFAULT_KEY, seed=3)
        seconds = time.perf_counter() - t0
        totals = engine.cache_totals
        assert totals["hits"] == N_SHARDS // 2
        assert totals["misses"] == N_SHARDS // 2
        return seconds, result

    stats = {}
    results = {}
    for schedule in ("static", "stealing"):
        seconds = []
        for round_index in range(ROUNDS):
            elapsed, results[schedule] = timed_pass(schedule, round_index)
            seconds.append(elapsed)
        stats[schedule] = {
            "seconds_per_round": sum(seconds) / ROUNDS,
            "best_seconds": min(seconds),
            "rounds": seconds,
        }

    # The speedup only counts if the schedules agree bit for bit.
    np.testing.assert_array_equal(
        results["stealing"].traces, results["static"].traces
    )
    np.testing.assert_array_equal(
        results["stealing"].ciphertexts, results["static"].ciphertexts
    )

    put = _put_transient(tmp_path / "put")
    speedup = stats["static"]["best_seconds"] / stats["stealing"]["best_seconds"]
    gate_enforced = (os.cpu_count() or 1) >= WORKERS
    report = {
        "config": {
            "n_traces": N_TRACES,
            "n_shards": N_SHARDS,
            "shard_size": SHARD,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "warm_fraction": 0.5,
            # Interpreting the speedup needs the core count: on a
            # single core the two schedules time-slice the same CPU
            # work and stealing's overlap buys nothing.
            "cpu_count": os.cpu_count() or 1,
        },
        "blob": _blob_throughput(tmp_path / "blobs"),
        "put_transient": put,
        "static": stats["static"],
        "stealing": stats["stealing"],
        "stealing_speedup": speedup,
        "gate": {
            "min_speedup": MIN_STEALING_SPEEDUP,
            "enforced": gate_enforced,
        },
        # A byte count: enforced on any host.
        "put_transient_gate": {
            "max_bytes": MAX_PUT_TRANSIENT_BYTES,
            "enforced": True,
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    run_once(benchmark, timed_pass, "stealing", "bench")
    benchmark.extra_info["static_seconds"] = round(
        stats["static"]["best_seconds"], 2
    )
    benchmark.extra_info["stealing_seconds"] = round(
        stats["stealing"]["best_seconds"], 2
    )
    benchmark.extra_info["stealing_speedup"] = round(speedup, 2)
    benchmark.extra_info["put_transient_kb"] = round(
        put["peak_transient_bytes"] / 1e3, 1
    )
    benchmark.extra_info["report"] = str(OUTPUT.name)

    assert put["peak_transient_bytes"] <= MAX_PUT_TRANSIENT_BYTES, (
        f"one {put['block_bytes'] / 1e6:.2f} MB sub-block put traced "
        f"{put['peak_transient_bytes'] / 1e6:.3f} MB of transient "
        f"allocations (budget {MAX_PUT_TRANSIENT_BYTES / 1e6:.3f} MB): "
        "the publish path copies the block"
    )
    if gate_enforced:
        assert speedup >= MIN_STEALING_SPEEDUP, (
            f"expected >={MIN_STEALING_SPEEDUP}x from work stealing on a "
            f"50/50 warm/cold campaign with {WORKERS} workers, got "
            f"{speedup:.2f}x"
        )
