"""Differential tests for the batched CPA accumulate engine.

The contract under test (see :mod:`repro.attacks.cpa`): the batched
stacked-GEMM engine accumulates the **same exact sums** as the per-byte
oracle (:class:`tests.oracles.PerByteCPA`), so on integer-valued
traces — the acquisition regime — correlations, peak correlations,
guesses and ranks are bit-identical between them for any chunking,
merge order, sample window, or dtype-narrowing decision inside the
batched tile loop; and state snapshots written by either restore into
either.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import cpa
from repro.attacks.cpa import (
    CPAAttack,
    _BATCH_TILE_ROWS,
    hypothesis_table,
)
from repro.errors import AttackError
from repro.victims.aes.core import SHIFT_ROWS_IDX
from tests.oracles import PerByteCPA

S = 23
WINDOWS = [None, (0, S), (3, 17), (10, 11)]


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(42)
    traces = rng.integers(-2048, 2048, size=(700, S), dtype=np.int16)
    cts = rng.integers(0, 256, size=(700, 16), dtype=np.uint8)
    return traces, cts


#: The production engine and its oracle, by the names the tests use.
ENGINES = {"batched": CPAAttack, "per-byte": PerByteCPA}


def engines(window=None):
    return CPAAttack(S, sample_window=window), PerByteCPA(S, sample_window=window)


class TestGatherTable:
    def test_matches_hypothesis_table(self):
        # Every (ct_target, ct_partner) code, through a byte whose
        # ShiftRows partner is another ciphertext byte.
        j = 1
        partner = int(SHIFT_ROWS_IDX[j])
        codes = np.arange(65536)
        cts = np.zeros((65536, 16), dtype=np.uint8)
        cts[:, j], cts[:, partner] = codes >> 8, codes & 0xFF
        table = hypothesis_table()
        assert cpa.SROW.nbytes == 65536
        for start in range(0, 65536, _BATCH_TILE_ROWS):
            rows = slice(start, start + _BATCH_TILE_ROWS)
            block = cpa._HypothesisTile(cts[rows])._hypotheses()
            assert block.dtype == np.uint8
            np.testing.assert_array_equal(
                block[:, j, :], table[:, codes[rows] >> 8, codes[rows] & 0xFF].T
            )


class TestBitIdentity:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_all_windows_bit_identical(self, batch, window):
        traces, cts = batch
        a, b = engines(window)
        a.add_traces(traces, cts)
        b.add_traces(traces, cts)
        assert np.array_equal(a.correlations(), b.correlations())
        assert np.array_equal(a.peak_correlations(), b.peak_correlations())
        assert np.array_equal(a.best_guesses(), b.best_guesses())

    def test_chunking_invariant(self, batch):
        traces, cts = batch
        whole, _ = engines()
        whole.add_traces(traces, cts)
        for cuts in ([100], [1, 699], [250, 251, 400]):
            chunked = CPAAttack(S)
            for lo, hi in zip([0] + cuts, cuts + [len(traces)]):
                chunked.add_traces(traces[lo:hi], cts[lo:hi])
            assert np.array_equal(chunked.correlations(), whole.correlations())

    def test_merge_order_invariant(self, batch):
        traces, cts = batch
        whole, _ = engines()
        whole.add_traces(traces, cts)
        parts = []
        for lo, hi in ((0, 200), (200, 450), (450, 700)):
            part = CPAAttack(S)
            part.add_traces(traces[lo:hi], cts[lo:hi])
            parts.append(part)
        merged = parts[2].merge(parts[0]).merge(parts[1])
        assert np.array_equal(merged.correlations(), whole.correlations())

    def test_tile_boundary_crossing(self):
        # A chunk larger than the internal tile exercises the
        # multi-tile loop; identity must hold across the seam.
        rng = np.random.default_rng(3)
        m = _BATCH_TILE_ROWS + 257
        traces = rng.integers(0, 1024, size=(m, S), dtype=np.int16)
        cts = rng.integers(0, 256, size=(m, 16), dtype=np.uint8)
        a, b = engines()
        a.add_traces(traces, cts)
        b.add_traces(traces, cts)
        assert np.array_equal(a.correlations(), b.correlations())

    def test_integral_float_traces_bit_identical(self, batch):
        traces, cts = batch
        a, b = engines()
        # Integer-valued but float-typed: the f32 GEMM guard must see a
        # non-integer dtype and take the float64 path — still exact.
        a.add_traces(traces.astype(np.float64), cts)
        b.add_traces(traces.astype(np.float64), cts)
        assert np.array_equal(a.correlations(), b.correlations())

    def test_large_readouts_force_f64_and_stay_identical(self):
        # 8 * rows * max|y| >= 2**24 defeats the float32 exactness
        # bound; the engine must fall back to the float64 GEMM.
        rng = np.random.default_rng(9)
        traces = rng.integers(-(2**22), 2**22, size=(300, S), dtype=np.int64)
        cts = rng.integers(0, 256, size=(300, 16), dtype=np.uint8)
        a, b = engines()
        a.add_traces(traces, cts)
        b.add_traces(traces, cts)
        assert np.array_equal(a.correlations(), b.correlations())

    def test_non_integer_floats_agree_to_1e_10(self, batch):
        traces, cts = batch
        noisy = traces + 0.375  # exact in float64, not integral
        a, b = engines()
        a.add_traces(noisy, cts)
        b.add_traces(noisy, cts)
        np.testing.assert_allclose(
            a.correlations(), b.correlations(), rtol=0, atol=1e-10
        )

    def test_recovers_planted_key_like_reference(self):
        # Synthetic leakage: the hypothesis of the true key leaks into
        # one sample.  Both engines must find the same (correct) key.
        from repro.victims.aes.core import SHIFT_ROWS_IDX
        from repro.victims.aes.key_schedule import expand_key
        from repro.victims.aes.sbox import HW8, INV_SBOX

        rng = np.random.default_rng(5)
        key10 = expand_key(bytes(range(16)))[10]
        m = 900
        cts = rng.integers(0, 256, size=(m, 16), dtype=np.uint8)
        traces = rng.integers(0, 64, size=(m, S), dtype=np.int16)
        leak = np.zeros(m, dtype=np.int64)
        for j in range(16):
            pred = INV_SBOX[cts[:, j] ^ key10[j]]
            leak += HW8[pred ^ cts[:, SHIFT_ROWS_IDX[j]]]
        traces[:, 7] += (4 * leak).astype(np.int16)
        a, b = engines()
        a.add_traces(traces, cts)
        b.add_traces(traces, cts)
        assert np.array_equal(a.best_guesses(), key10)
        assert np.array_equal(b.best_guesses(), key10)
        assert np.array_equal(
            a.byte_ranks(key10), np.zeros(16, dtype=np.int64)
        )


def assert_same_state(a, b):
    sa, sb = a.state_arrays(), b.state_arrays()
    assert sa.keys() == sb.keys()
    for name in sa:
        assert np.array_equal(sa[name], sb[name]), name
    assert np.array_equal(a.correlations(), b.correlations())


def fan_out_vs_solo(traces_list, cts, cuts, window=None, mode="batched"):
    """Fold each sensor's traces chunk by chunk (cut at ``cuts``) with
    one ``update_many`` per chunk and with separate ``add_traces``
    calls; returns ``(fanned, solo)`` attack lists."""
    fanned = [ENGINES[mode](S, window) for _ in traces_list]
    solo = [ENGINES[mode](S, window) for _ in traces_list]
    edges = [0, *cuts, len(cts)]
    for lo, hi in zip(edges, edges[1:]):
        CPAAttack.update_many(
            fanned, [t[lo:hi] for t in traces_list], cts[lo:hi]
        )
        for attack, traces in zip(solo, traces_list):
            attack.add_traces(traces[lo:hi], cts[lo:hi])
    return fanned, solo


def assert_matches_separate_and_oracle(fanned, traces_list, cts, windows=None):
    """Each fanned-out attack equals a separate attack fed its traces,
    state for state, and the per-byte oracle's correlations."""
    windows = windows or [None] * len(fanned)
    for attack, traces, window in zip(fanned, traces_list, windows):
        solo = CPAAttack(S, window)
        solo.add_traces(traces, cts)
        assert_same_state(attack, solo)
        oracle = PerByteCPA(S, window)
        oracle.add_traces(traces, cts)
        assert np.array_equal(attack.correlations(), oracle.correlations())


def sensor_traces(n, m, seed=0, high=2048, dtype=np.int16):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, high, size=(m, S)).astype(dtype) for _ in range(n)]


class TestFanOut:
    """``update_many`` shares each tile's hypotheses across sensors;
    every sensor must end bit-identical to its own ``add_traces``."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("window", [None, (3, 17)])
    @pytest.mark.parametrize("mode", ["batched", "per-byte"])
    def test_bit_identical_to_separate_attacks(self, batch, n, window, mode):
        _, cts = batch
        traces_list = sensor_traces(n, len(cts))
        fanned, solo = fan_out_vs_solo(
            traces_list, cts, [100, 333], window, mode
        )
        for a, b in zip(fanned, solo):
            assert_same_state(a, b)
        # ... and to the per-byte oracle.
        oracle = PerByteCPA(S, window)
        oracle.add_traces(traces_list[-1], cts)
        assert np.array_equal(fanned[-1].correlations(), oracle.correlations())

    @pytest.mark.parametrize("n", [1, 5])
    def test_chunks_not_multiples_of_the_tile(self, n):
        m = 2 * _BATCH_TILE_ROWS + 301
        cts = np.random.default_rng(1).integers(0, 256, (m, 16), dtype=np.uint8)
        traces_list = sensor_traces(n, m, seed=2, high=64, dtype=np.uint8)
        cuts = [_BATCH_TILE_ROWS - 7, _BATCH_TILE_ROWS + 500]
        fanned, solo = fan_out_vs_solo(traces_list, cts, cuts, (2, 20))
        for a, b in zip(fanned, solo):
            assert_same_state(a, b)

    def test_one_sensor_beyond_the_f32_bound(self, batch):
        # Sensor 1 defeats the float32 exactness bound inside a tile the
        # others fold in float32: only its GEMM falls back to float64.
        _, cts = batch
        traces_list = sensor_traces(3, len(cts), seed=3, high=64)
        traces_list[1] = np.random.default_rng(4).integers(
            -(2**22), 2**22, size=(len(cts), S)
        )
        fanned, solo = fan_out_vs_solo(traces_list, cts, [350])
        for a, b in zip(fanned, solo):
            assert_same_state(a, b)
        oracle = PerByteCPA(S)
        oracle.add_traces(traces_list[1], cts)
        assert np.array_equal(fanned[1].correlations(), oracle.correlations())

    @pytest.mark.parametrize("mode", ["batched", "per-byte"])
    def test_non_integer_floats(self, batch, mode):
        traces, cts = batch
        traces_list = [traces + 0.375, traces * 0.5 - 0.125]
        fanned, solo = fan_out_vs_solo(traces_list, cts, [123], (3, 17), mode)
        for a, b in zip(fanned, solo):
            assert_same_state(a, b)

    def test_mixed_engines_share_a_tile(self, batch):
        traces, cts = batch
        mixed = [PerByteCPA(S), CPAAttack(S)]
        CPAAttack.update_many(mixed, [traces, traces], cts)
        assert np.array_equal(mixed[0].correlations(), mixed[1].correlations())

    def test_sensor_folds_run_in_update(self, batch, monkeypatch):
        # Each sensor's fold is its own update call, once per tile.
        traces, cts = batch
        calls = []
        real = CPAAttack.update

        def spy(self, chunk, tile):
            calls.append((id(self), len(chunk)))
            return real(self, chunk, tile)

        monkeypatch.setattr(CPAAttack, "update", spy)
        attacks = [CPAAttack(S) for _ in range(3)]
        CPAAttack.update_many(attacks, [traces] * 3, cts)
        assert calls == [(id(a), len(traces)) for a in attacks]

    def test_stale_tile_rebuilds_its_hypotheses(self, batch):
        # Tiles share scratch buffers; a tile folded after a newer tile
        # took them over must not read the newer tile's hypotheses.
        from repro.attacks.cpa import _hypothesis_tiles

        traces, cts = batch
        (first,) = _hypothesis_tiles(cts[:300], [], [])
        (second,) = _hypothesis_tiles(cts[300:600], [], [])
        a, b, c = (CPAAttack(S) for _ in range(3))
        a.update(traces[:300], first)
        b.update(traces[300:600], second)
        c.update(traces[:300], first)
        reference = CPAAttack(S)
        reference.add_traces(traces[:300], cts[:300])
        assert_same_state(a, reference)
        assert_same_state(c, reference)

    def test_interleaved_tiles_rebuild_their_stacked_product(self, batch):
        # Each tile's stacked float32 product lives in the shared scratch
        # pool; peers of two tiles folded in turn must each rebuild it
        # instead of reading the other tile's product.
        from repro.attacks.cpa import _hypothesis_tiles

        _, cts = batch
        traces_list = sensor_traces(3, 600, seed=6)
        fanned = [CPAAttack(S) for _ in traces_list]
        with mock.patch.object(cpa, "_BATCH_TILE_ROWS", 300):
            tiles = list(_hypothesis_tiles(cts[:600], fanned, traces_list))
        assert len(tiles) == 2
        for i in range(len(traces_list)):
            for tile in tiles:
                attack, chunk = tile.peers[i]
                attack.update(chunk, tile)
        assert_matches_separate_and_oracle(fanned, traces_list, cts[:600])

    def test_mixed_dtypes_and_bounds_in_one_tile(self, batch):
        # int16 peers share the float32 product; a float-typed peer and
        # a peer past the 2**24 bound run their own float64 GEMMs.
        traces, cts = batch
        big = np.random.default_rng(7).integers(
            -(2**22), 2**22, size=traces.shape
        )
        traces_list = [
            traces, traces.astype(np.float64), big, traces[:, ::-1].copy()
        ]
        fanned = [CPAAttack(S) for _ in traces_list]
        CPAAttack.update_many(fanned, traces_list, cts)
        assert_matches_separate_and_oracle(fanned, traces_list, cts)

    def test_peers_with_different_sample_windows(self, batch):
        _, cts = batch
        traces_list = sensor_traces(len(WINDOWS), len(cts), seed=8)
        fanned = [CPAAttack(S, window) for window in WINDOWS]
        CPAAttack.update_many(fanned, traces_list, cts)
        assert_matches_separate_and_oracle(fanned, traces_list, cts, WINDOWS)

    def test_update_with_unregistered_traces(self, batch):
        # A tile folds exactly the traces update is given: a pair that
        # is not one of its peers gets a product of its own and leaves
        # the peers' stacked product intact.
        from repro.attacks.cpa import _hypothesis_tiles

        traces, cts = batch
        registered = sensor_traces(3, len(cts), seed=9)
        fanned = [CPAAttack(S) for _ in registered]
        (tile,) = _hypothesis_tiles(cts, fanned, registered)
        stranger = CPAAttack(S)
        fanned[2].update(tile.peers[2][1], tile)  # builds the product
        stranger.update(traces, tile)
        fanned[1].update(traces, tile)  # a peer, but not its traces
        fanned[0].update(tile.peers[0][1], tile)  # the product's first rows
        assert_matches_separate_and_oracle(
            [*fanned, stranger], [registered[0], traces, registered[2], traces], cts
        )

    def test_state_arrays_keep_the_group_major_layout(self, batch):
        # Sample-major sums inside; the dump is the (16, 256, window)
        # C-ordered layout snapshots have always stored.
        _, cts = batch
        traces_list = sensor_traces(2, len(cts), seed=10)
        fanned = [CPAAttack(S, (3, 17)) for _ in traces_list]
        CPAAttack.update_many(fanned, traces_list, cts)
        oracle = PerByteCPA(S, (3, 17))
        oracle.add_traces(traces_list[1], cts)
        want = oracle._stacked_layout(oracle.state_arrays())
        got = fanned[1].state_arrays()
        assert got.keys() == want.keys()
        assert np.array_equal(got["n"], want["n"]) and got["n"][0] == len(cts)
        for name in ("s_x", "s_x2", "s_y", "s_y2", "s_xy"):
            expected = np.ascontiguousarray(want[name], dtype=np.float64)
            assert got[name].dtype == np.float64, name
            assert got[name].shape == expected.shape, name
            assert got[name].flags.c_contiguous, name
            assert got[name].tobytes() == expected.tobytes(), name
        assert got["s_xy"].shape == (16, 256, 14)

    def test_rejects_mismatched_inputs_before_folding(self, batch):
        traces, cts = batch
        attacks = [CPAAttack(S), CPAAttack(S)]
        with pytest.raises(AttackError):
            CPAAttack.update_many(attacks, [traces], cts)
        with pytest.raises(AttackError):
            CPAAttack.update_many(attacks, [traces, traces[:-1]], cts)
        with pytest.raises(AttackError):
            CPAAttack.update_many(attacks, [traces, traces[:, :-1]], cts)
        with pytest.raises(AttackError):
            CPAAttack.update_many(attacks, [traces[:0]] * 2, cts[:0])
        assert all(a.n_traces == 0 for a in attacks)


@settings(max_examples=40)
@given(
    n=st.integers(1, 4),
    m=st.integers(2, 90),
    tile_rows=st.integers(1, 40),
    cut_fracs=st.lists(st.floats(0.0, 1.0), max_size=3),
    window=st.sampled_from(WINDOWS),
    mode=st.sampled_from(["batched", "per-byte"]),
    scale=st.sampled_from([1, 2**19]),
    seed=st.integers(0, 2**16),
)
def test_fan_out_matches_separate_attacks_property(
    n, m, tile_rows, cut_fracs, window, mode, scale, seed
):
    # Small tiles make every draw cross tile seams; the large scale
    # pushes some tiles past the float32 exactness bound.
    rng = np.random.default_rng(seed)
    cts = rng.integers(0, 256, (m, 16), dtype=np.uint8)
    traces_list = [rng.integers(-scale, scale + 1, (m, S)) for _ in range(n)]
    cuts = sorted({int(f * (m - 1)) + 1 for f in cut_fracs} - {m})
    with mock.patch.object(cpa, "_BATCH_TILE_ROWS", tile_rows):
        fanned, solo = fan_out_vs_solo(traces_list, cts, cuts, window, mode)
    oracle = PerByteCPA(S, window)
    oracle.add_traces(traces_list[0], cts)
    for a, b in zip(fanned, solo):
        assert_same_state(a, b)
    assert np.array_equal(fanned[0].correlations(), oracle.correlations())


class TestStateMigration:
    @pytest.mark.parametrize("window", [None, (3, 17)])
    def test_batched_dump_into_per_byte(self, batch, window):
        traces, cts = batch
        a, b = engines(window)
        a.add_traces(traces, cts)
        restored = PerByteCPA(S, sample_window=window).load_state_arrays(
            a.state_arrays()
        )
        b.add_traces(traces, cts)
        assert np.array_equal(restored.correlations(), b.correlations())

    @pytest.mark.parametrize("window", [None, (3, 17)])
    def test_per_byte_dump_into_batched(self, batch, window):
        traces, cts = batch
        a, b = engines(window)
        b.add_traces(traces, cts)
        restored = CPAAttack(S, sample_window=window).load_state_arrays(
            b.state_arrays()
        )
        a.add_traces(traces, cts)
        assert np.array_equal(restored.correlations(), a.correlations())

    def test_same_engine_round_trips(self, batch):
        traces, cts = batch
        for engine in ENGINES.values():
            src = engine(S)
            src.add_traces(traces, cts)
            dst = engine(S).load_state_arrays(
                src.state_arrays()
            )
            assert np.array_equal(dst.correlations(), src.correlations())
            assert dst.n_traces == src.n_traces

    def test_cache_token_engine_agnostic(self):
        a, b = engines((3, 17))
        assert a.cache_token() == b.cache_token()

    def test_rejects_unknown_layout(self):
        with pytest.raises(AttackError, match="unrecognized"):
            CPAAttack(S).load_state_arrays({"sums": np.zeros(3)})

    def test_rejects_inconsistent_per_byte_dump(self, batch):
        traces, cts = batch
        _, b = engines()
        b.add_traces(traces, cts)
        dump = dict(b.state_arrays())
        dump["b07_s_y"] = dump["b07_s_y"] + 1.0
        with pytest.raises(AttackError, match="byte 7"):
            CPAAttack(S).load_state_arrays(dump)


class TestEngineSelection:
    """The production engine and the oracle side by side."""

    def test_cross_engine_merge_rejected(self, batch):
        traces, cts = batch
        a, b = engines()
        a.add_traces(traces[:100], cts[:100])
        b.add_traces(traces[100:200], cts[100:200])
        with pytest.raises(AttackError, match="cannot merge PerByteCPA"):
            a.merge(b)
        with pytest.raises(AttackError, match="cannot merge CPAAttack"):
            b.merge(a)

    def test_pickle_round_trip_both_engines(self, batch):
        import pickle

        traces, cts = batch
        for engine in ENGINES.values():
            attack = engine(S)
            attack.add_traces(traces, cts)
            clone = pickle.loads(pickle.dumps(attack))
            assert np.array_equal(clone.correlations(), attack.correlations())

    def test_pickle_does_not_carry_the_correlation_memo(self, batch):
        import pickle

        traces, cts = batch
        attack = CPAAttack(S)
        attack.add_traces(traces, cts)
        before = len(pickle.dumps(attack))
        rho = attack.correlations()
        assert len(pickle.dumps(attack)) == before
        clone = pickle.loads(pickle.dumps(attack))
        assert np.array_equal(clone.correlations(), rho)


class TestCorrelationCache:
    def test_repeat_calls_reuse_the_matrix(self, batch):
        traces, cts = batch
        for engine in ENGINES.values():
            attack = engine(S)
            attack.add_traces(traces, cts)
            rho = attack.correlations()
            assert attack.correlations() is rho
            assert not rho.flags.writeable

    def test_update_invalidates(self, batch):
        traces, cts = batch
        attack = CPAAttack(S)
        attack.add_traces(traces[:400], cts[:400])
        before = attack.correlations()
        attack.add_traces(traces[400:], cts[400:])
        after = attack.correlations()
        assert after is not before
        assert not np.array_equal(after, before)

    def test_merge_invalidates(self, batch):
        traces, cts = batch
        a = CPAAttack(S)
        a.add_traces(traces[:400], cts[:400])
        before = a.correlations()
        other = CPAAttack(S)
        other.add_traces(traces[400:], cts[400:])
        assert a.merge(other).correlations() is not before

    def test_state_load_invalidates(self, batch):
        traces, cts = batch
        a = CPAAttack(S)
        a.add_traces(traces[:400], cts[:400])
        before = a.correlations()
        full = CPAAttack(S)
        full.add_traces(traces, cts)
        a.load_state_arrays(full.state_arrays())
        assert np.array_equal(a.correlations(), full.correlations())
        assert not np.array_equal(a.correlations(), before)

    def test_cached_matrix_matches_fresh_compute(self, batch):
        traces, cts = batch
        attack = CPAAttack(S)
        attack.add_traces(traces, cts)
        cached = attack.correlations()
        fresh = CPAAttack(S)
        fresh.add_traces(traces, cts)
        assert np.array_equal(cached, fresh.correlations())
