"""Bench: raw CPA engine throughput (traces/second accumulated).

Not a paper figure — a performance benchmark of the numpy CPA engine
that stands in for the paper's GPU CPA tool [8], useful for tracking
regressions in the accumulator hot path.  Two accumulate engines are
timed — ``batched`` (``CPAAttack``, the stacked-GEMM production path)
and ``per-byte`` (the 16-GEMM reference engine, kept inline here as
the timed baseline) — and their correlations are asserted bit-identical
before the numbers are trusted.  A fan-out row times
``N_SENSORS`` sensors sharing one ciphertext batch through
``CPAAttack.update_many`` against the same sensors as separate
attacks, asserted bit-identical too.  A key-rank row times
``key_rank_bounds`` against the full 15-step convolution chain on a
fixed mix of score sets, from no leakage to a fully recovered key,
asserted bit-identical as well.  Most of that mix ranks above 2^53,
where ``key_rank_bounds`` runs the tail-only float chain; a second
key-rank row times the same pair on score sets that all rank below
2^53, the exactly counted case most of a campaign's checkpoints hit.
A tile-fold row traces, with :mod:`tracemalloc`, one N=1 fold of a
``_BATCH_TILE_ROWS``-row tile on a fresh thread (so the thread's
scratch pool is allocated inside the traced window): the float32
hypothesis block, built in small chunks, and the GEMM operands, with
no whole-tile uint8 block beside them.
Records machine-readable numbers (traces/second per engine, the
batched and fan-out speedups, correlation evaluations per second,
key-rank seconds per evaluation and speedups, the tile fold's traced
peak, peak RSS) in ``BENCH_cpa.json`` next to
``BENCH_acquisition.json``; ``scripts/check_cpa_regression.py`` gates
CI on all four speedups and the tile fold's bytes.
"""

import json
import resource
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.streaming import StreamingPearson
from repro.attacks.cpa import _BATCH_TILE_ROWS, CPAAttack, hypothesis_table
from repro.attacks.key_rank import key_rank_bounds
from repro.victims.aes.core import SHIFT_ROWS_IDX
from conftest import full_scale, run_once

N_TRACES, N_SAMPLES = 4000, 45
#: Sensors of the fan-out row (the canonical Fig. 5 campaign has five).
N_SENSORS = 5
N_ROUNDS = 10 if full_scale() else 6
#: True-byte score boosts of the key-rank mix: no leakage up to every
#: byte far above its competitors (a fully recovered key).
KEYRANK_BOOSTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)
#: Boosts of the below-2^53 mix: ranks from about 2^47 down to a
#: recovered key, like a campaign's checkpoints around disclosure.
KEYRANK_EXACT_BOOSTS = (3.0, 3.25, 3.5, 3.75, 4.0, 5.0, 6.0, 8.0)
#: CI gate on the below-2^53 row's speedup over the full chain, a
#: third of the ~30x measured on the 2-vCPU box that wrote
#: ``BENCH_cpa.json``.
MIN_KEYRANK_EXACT_SPEEDUP = 10.0
#: CI budget for one N=1 tile fold's traced peak: the 16.8 MB float32
#: block a tile needs plus ~3 MB for the GEMM operands and chunk
#: scratch (~18.4 MB measured).  A whole-tile uint8 hypothesis block
#: (4.2 MB) on top of the float one breaks it.
MAX_TILE_FOLD_BYTES = 20_000_000
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_cpa.json"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss if sys.platform == "darwin" else maxrss * 1024


@pytest.fixture(scope="module")
def trace_batch():
    rng = np.random.default_rng(0)
    traces = rng.integers(0, 48, size=(N_TRACES, N_SAMPLES)).astype(np.int16)
    cts = rng.integers(0, 256, size=(N_TRACES, 16), dtype=np.uint8)
    hypothesis_table()  # build outside the timed region
    return traces, cts


@pytest.fixture(scope="module")
def sensor_batches(trace_batch):
    """``N_SENSORS`` readout matrices observing one ciphertext batch."""
    traces, cts = trace_batch
    rng = np.random.default_rng(1)
    others = [
        rng.integers(0, 48, size=traces.shape).astype(np.int16)
        for _ in range(N_SENSORS - 1)
    ]
    return [traces, *others], cts


def _accumulate(traces, cts):
    attack = CPAAttack(traces.shape[1])
    attack.add_traces(traces, cts)
    return attack


def _accumulate_per_byte(traces, cts):
    """The per-byte reference engine: the same row tiles as the batched
    engine, but 16 hypothesis gathers and 16 small GEMMs per tile, each
    into its own per-byte :class:`StreamingPearson`.  Returns the
    accumulators; :func:`_per_byte_correlations` finalizes them."""
    table = hypothesis_table()
    accs = [StreamingPearson(256, traces.shape[1]) for _ in range(16)]
    for start in range(0, len(cts), _BATCH_TILE_ROWS):
        tile = cts[start : start + _BATCH_TILE_ROWS]
        y = np.asarray(traces[start : start + _BATCH_TILE_ROWS], dtype=np.float64)
        for j, acc in enumerate(accs):
            acc.update(table[:, tile[:, j], tile[:, SHIFT_ROWS_IDX[j]]].T, y)
    return accs


def _per_byte_correlations(accs):
    return np.stack([acc.finalize() for acc in accs])


def _fan_out(traces_list, cts):
    attacks = [CPAAttack(t.shape[1]) for t in traces_list]
    CPAAttack.update_many(attacks, traces_list, cts)
    return attacks


def _separate(traces_list, cts):
    return [_accumulate(t, cts) for t in traces_list]


def _boosted_score_sets(boosts, seed):
    """Fisher-style ``(16, 256)`` scores, one set per boost, with the
    true key's bytes raised by it."""
    rng = np.random.default_rng(seed)
    rows = np.arange(16)
    sets = []
    for boost in boosts:
        scores = rng.normal(0.0, 1.0, (16, 256))
        true = rng.integers(0, 256, 16)
        scores[rows, true] += boost
        sets.append((scores, true))
    return sets


@pytest.fixture(scope="module")
def score_sets():
    """The span of rank evaluations a campaign makes on its way to
    disclosure, ``KEYRANK_BOOSTS``."""
    return _boosted_score_sets(KEYRANK_BOOSTS, seed=2)


@pytest.fixture(scope="module")
def exact_score_sets():
    """Score sets that all rank below 2^53, ``KEYRANK_EXACT_BOOSTS``."""
    sets = _boosted_score_sets(KEYRANK_EXACT_BOOSTS, seed=3)
    assert all(key_rank_bounds(s, t)[1] < 53 for s, t in sets)
    return sets


def _full_chain_bounds(scores, true, n_bins=1024):
    """Key-rank bounds from the full convolution chain: every bin of
    all 15 ``np.convolve`` steps, then a reverse cumulative sum.  The
    reference ``key_rank_bounds`` must match bit for bit."""
    lo, hi = scores.min(), scores.max()
    width = (hi - lo) / (n_bins - 1)
    bins_down = np.clip(
        np.floor((scores - lo) / width).astype(np.int64), 0, n_bins - 1
    )
    bins_up = bins_down + 1
    rows = np.arange(16)

    def mass_at_or_above(bins, b):
        dist = np.zeros(n_bins + 1)
        np.add.at(dist, bins[0], 1.0)
        for j in range(1, 16):
            h = np.zeros(n_bins + 1)
            np.add.at(h, bins[j], 1.0)
            dist = np.convolve(dist, h)
        cum_from_top = np.cumsum(dist[::-1])[::-1]
        return float(cum_from_top[max(b, 0)]) if b < dist.shape[0] else 0.0

    upper = float(np.log2(max(
        mass_at_or_above(bins_up, int(bins_down[rows, true].sum())), 1.0
    )))
    lower = float(np.log2(max(
        mass_at_or_above(bins_down, int(bins_up[rows, true].sum()) + 1) + 1.0,
        1.0,
    )))
    return (min(lower, upper), upper)


def _tile_fold_peak(traces, cts) -> int:
    """Traced peak bytes of one N=1 fold of a ``_BATCH_TILE_ROWS``-row
    tile, run on a fresh thread so its scratch pool starts empty."""
    traces, cts = traces[:_BATCH_TILE_ROWS], cts[:_BATCH_TILE_ROWS]
    attack = CPAAttack(traces.shape[1])

    def fold():
        tracemalloc.start()
        attack.update(traces, cts)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fold).result()


def _rank_all(rank, sets):
    return [rank(scores, true) for scores, true in sets]


def test_cpa_accumulate_throughput(benchmark, trace_batch):
    traces, cts = trace_batch

    attack = benchmark(_accumulate, traces, cts)
    benchmark.extra_info["traces_per_round"] = traces.shape[0]
    assert attack.n_traces == traces.shape[0]


def test_cpa_accumulate_per_byte_throughput(benchmark, trace_batch):
    traces, cts = trace_batch

    accs = benchmark(_accumulate_per_byte, traces, cts)
    benchmark.extra_info["traces_per_round"] = traces.shape[0]
    assert all(acc.n == traces.shape[0] for acc in accs)


def test_cpa_fanout_throughput(benchmark, sensor_batches):
    traces_list, cts = sensor_batches

    attacks = benchmark(_fan_out, traces_list, cts)
    benchmark.extra_info["traces_per_round"] = N_SENSORS * len(cts)
    assert [a.n_traces for a in attacks] == [len(cts)] * N_SENSORS


def test_cpa_correlation_evaluation(benchmark, trace_batch):
    traces, cts = trace_batch
    attack = CPAAttack(traces.shape[1])
    attack.add_traces(traces, cts)

    def correlate():
        # Time the finalize, not the accumulator's memo hits.
        attack._stacked._rho = None
        return attack.correlations()

    rho = benchmark(correlate)
    assert rho.shape == (16, 256, traces.shape[1])
    assert np.all(np.abs(rho) <= 1.0 + 1e-9)


def test_key_rank_evaluation(benchmark, score_sets):
    bounds = benchmark(_rank_all, key_rank_bounds, score_sets)
    assert all(lo <= hi for lo, hi in bounds)


def interleaved_rounds(*fns):
    """Per-round seconds of each of ``fns``: one unmeasured warm-up
    call each (hypothesis gathers, scratch buffers, BLAS threads), then
    ``N_ROUNDS`` rounds that each time every fn once, in turn.  Paired
    rows alternate this way so a host-speed phase lands on both sides
    of a ratio alike instead of on one back-to-back block."""
    for fn in fns:
        fn()
    seconds = [[] for _ in fns]
    for _ in range(N_ROUNDS):
        for fn, rounds in zip(fns, seconds):
            t0 = time.perf_counter()
            fn()
            rounds.append(time.perf_counter() - t0)
    return seconds


def round_stats(seconds, traces_per_round=N_TRACES):
    return {
        "seconds_per_round": sum(seconds) / N_ROUNDS,
        "best_seconds_per_round": min(seconds),
        "traces_per_second": N_ROUNDS * traces_per_round / sum(seconds),
        "best_traces_per_second": traces_per_round / min(seconds),
    }


def test_cpa_throughput_report(
    benchmark, trace_batch, sensor_batches, score_sets, exact_score_sets
):
    """Drive both accumulate engines, the fan-out accumulate, the
    correlation path and the key rank directly (one unmeasured warm-up
    plus ``N_ROUNDS`` measured rounds each, the two sides of every
    speedup in alternating rounds) and write ``BENCH_cpa.json``.

    Throughput is reported from the per-round *minimum* — the least
    load-sensitive estimator — alongside plain totals, matching
    ``BENCH_acquisition.json``.
    """
    traces, cts = trace_batch

    batched_seconds, per_byte_seconds = interleaved_rounds(
        lambda: _accumulate(traces, cts),
        lambda: _accumulate_per_byte(traces, cts),
    )
    batched_stats = round_stats(batched_seconds)
    per_byte_stats = round_stats(per_byte_seconds)

    traces_list, fan_cts = sensor_batches
    sensor_traces = N_SENSORS * N_TRACES
    fanout_seconds, separate_seconds = interleaved_rounds(
        lambda: _fan_out(traces_list, fan_cts),
        lambda: _separate(traces_list, fan_cts),
    )
    fanout_stats = round_stats(fanout_seconds, sensor_traces)
    separate_stats = round_stats(separate_seconds, sensor_traces)
    # The fan-out speedup only counts if every sensor's state matches
    # its separate attack bit for bit.
    for fanned, alone in zip(
        _fan_out(traces_list, fan_cts), _separate(traces_list, fan_cts)
    ):
        fanned_state, alone_state = fanned.state_arrays(), alone.state_arrays()
        for name in alone_state:
            assert np.array_equal(fanned_state[name], alone_state[name]), name

    attack = _accumulate(traces, cts)
    reference = _per_byte_correlations(_accumulate_per_byte(traces, cts))
    # The speedup only counts if the engines agree bit for bit.
    assert np.array_equal(attack.correlations(), reference)

    def correlate():
        attack._stacked._rho = None
        return attack.correlations()

    (correlate_seconds,) = interleaved_rounds(correlate)

    def keyrank_rows(sets):
        """Per-eval key-rank and full-chain rows, and their speedup.
        It only counts if both bounds of every score set match the
        full chain's bit for bit."""
        for got, want in zip(
            _rank_all(key_rank_bounds, sets),
            _rank_all(_full_chain_bounds, sets),
        ):
            assert [v.hex() for v in got] == [v.hex() for v in want]
        rows = [
            {
                "n_score_sets": len(sets),
                "seconds_per_eval": sum(seconds) / (N_ROUNDS * len(sets)),
                "best_seconds_per_eval": min(seconds) / len(sets),
            }
            for seconds in interleaved_rounds(
                lambda: _rank_all(key_rank_bounds, sets),
                lambda: _rank_all(_full_chain_bounds, sets),
            )
        ]
        speedup = rows[1]["best_seconds_per_eval"] / rows[0]["best_seconds_per_eval"]
        return rows[0], rows[1], speedup

    keyrank, full_chain, keyrank_speedup = keyrank_rows(score_sets)
    exact, exact_full_chain, exact_speedup = keyrank_rows(exact_score_sets)

    report = {
        "config": {
            "n_traces": N_TRACES,
            "n_samples": N_SAMPLES,
            "n_rounds": N_ROUNDS,
        },
        "accumulate": batched_stats,
        "accumulate_per_byte": per_byte_stats,
        "batched_speedup": (
            batched_stats["best_traces_per_second"]
            / per_byte_stats["best_traces_per_second"]
        ),
        "accumulate_fanout": {"n_sensors": N_SENSORS, **fanout_stats},
        "accumulate_separate": {"n_sensors": N_SENSORS, **separate_stats},
        "fanout_speedup": (
            fanout_stats["best_traces_per_second"]
            / separate_stats["best_traces_per_second"]
        ),
        "correlations": {
            "seconds_per_eval": sum(correlate_seconds) / N_ROUNDS,
            "best_seconds_per_eval": min(correlate_seconds),
            "evals_per_second": N_ROUNDS / sum(correlate_seconds),
        },
        "key_rank": keyrank,
        "key_rank_full_chain": full_chain,
        "keyrank_speedup": keyrank_speedup,
        "key_rank_below_2_53": exact,
        "key_rank_below_2_53_full_chain": exact_full_chain,
        "keyrank_below_2_53_speedup": exact_speedup,
        # A single-process ratio: enforced on any core count.
        "keyrank_below_2_53_gate": {
            "min_speedup": MIN_KEYRANK_EXACT_SPEEDUP,
            "enforced": True,
        },
        "tile_fold": {
            "rows": _BATCH_TILE_ROWS,
            "n_samples": N_SAMPLES,
            "peak_traced_bytes": _tile_fold_peak(traces, cts),
        },
        # A byte count: enforced on any host.
        "tile_fold_gate": {"max_bytes": MAX_TILE_FOLD_BYTES, "enforced": True},
        "peak_rss_bytes": peak_rss_bytes(),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    run_once(benchmark, lambda: _accumulate(traces, cts))
    benchmark.extra_info["traces_per_s"] = round(
        report["accumulate"]["traces_per_second"]
    )
    benchmark.extra_info["per_byte_traces_per_s"] = round(
        report["accumulate_per_byte"]["traces_per_second"]
    )
    benchmark.extra_info["batched_speedup"] = round(
        report["batched_speedup"], 2
    )
    benchmark.extra_info["fanout_speedup"] = round(report["fanout_speedup"], 2)
    benchmark.extra_info["keyrank_speedup"] = round(
        report["keyrank_speedup"], 2
    )
    benchmark.extra_info["keyrank_below_2_53_speedup"] = round(
        report["keyrank_below_2_53_speedup"], 2
    )
    benchmark.extra_info["peak_rss_mb"] = round(
        report["peak_rss_bytes"] / 1e6
    )
    benchmark.extra_info["report"] = str(OUTPUT.name)
    assert report["accumulate"]["traces_per_second"] > 0
