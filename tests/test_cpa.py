"""Tests for the CPA engine: hypothesis table, incremental equivalence,
synthetic-leakage key recovery."""

import numpy as np
import pytest

from repro.attacks.cpa import CPAAttack, hypothesis_table
from repro.errors import AttackError
from repro.victims.aes.core import AES128
from repro.victims.aes.sbox import HW8, INV_SBOX

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def synthetic_traces(n, key=KEY, noise=2.0, seed=0):
    """Traces whose single sample leaks the true last-round register HD
    (plus Gaussian noise) — ground truth for attack correctness."""
    rng = np.random.default_rng(seed)
    aes = AES128(key)
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    states = aes.round_states(pts)
    hd = HW8[states[:, 9] ^ states[:, 10]].sum(axis=1).astype(float)
    leak = -hd + rng.normal(0, noise, n)
    traces = np.column_stack([rng.normal(0, 1, n), leak, rng.normal(0, 1, n)])
    return traces, states[:, 10], aes


class TestHypothesisTable:
    def test_shape_and_dtype(self):
        t = hypothesis_table()
        assert t.shape == (256, 256, 256)
        assert t.dtype == np.uint8

    def test_cached(self):
        assert hypothesis_table() is hypothesis_table()

    def test_values(self):
        t = hypothesis_table()
        g, cj, cb = 0x3A, 0x7F, 0x12
        expected = HW8[INV_SBOX[cj ^ g] ^ cb]
        assert t[g, cj, cb] == expected

    def test_range(self):
        t = hypothesis_table()
        assert t.max() == 8 and t.min() == 0


class TestValidation:
    def test_bad_sample_count(self):
        with pytest.raises(AttackError):
            CPAAttack(0)

    def test_bad_window(self):
        with pytest.raises(AttackError):
            CPAAttack(10, sample_window=(5, 20))
        with pytest.raises(AttackError):
            CPAAttack(10, sample_window=(7, 7))

    @pytest.mark.parametrize(
        "n_samples,window",
        [(10.5, None), (10.0, None), (True, None), (10, (2.0, 5.0)),
         (10, (2, 5.0)), (10, (False, 5)), ("10", None)],
    )
    def test_non_integral_configuration_rejected(self, n_samples, window):
        # Rejected up front, not by a bare TypeError on the first
        # update or a silent int() truncation in the cache token.
        with pytest.raises(AttackError, match="integer"):
            CPAAttack(n_samples, sample_window=window)

    def test_numpy_integers_accepted(self):
        attack = CPAAttack(np.int64(10), sample_window=(np.int32(2), np.uint8(5)))
        assert attack.cache_token()["sample_window"] == [2, 5]
        attack.add_traces(
            np.zeros((2, 10), dtype=np.int16), np.zeros((2, 16), dtype=np.uint8)
        )
        assert attack.n_traces == 2

    def test_trace_shape_mismatch(self):
        attack = CPAAttack(5)
        with pytest.raises(AttackError):
            attack.add_traces(np.zeros((3, 4)), np.zeros((3, 16), dtype=np.uint8))

    def test_ciphertext_shape_mismatch(self):
        attack = CPAAttack(5)
        with pytest.raises(AttackError):
            attack.add_traces(np.zeros((3, 5)), np.zeros((2, 16), dtype=np.uint8))

    def test_correlate_needs_traces(self):
        with pytest.raises(AttackError):
            CPAAttack(5).correlations()


class TestRecovery:
    def test_recovers_last_round_key(self):
        traces, cts, aes = synthetic_traces(3000)
        attack = CPAAttack(3)
        attack.add_traces(traces, cts)
        np.testing.assert_array_equal(attack.best_guesses(), aes.round_keys[10])

    def test_recovers_master_key(self):
        traces, cts, aes = synthetic_traces(3000)
        attack = CPAAttack(3)
        attack.add_traces(traces, cts)
        assert bytes(attack.recover_master_key()) == KEY

    def test_correlation_peak_at_leaky_sample(self):
        traces, cts, aes = synthetic_traces(3000)
        attack = CPAAttack(3)
        attack.add_traces(traces, cts)
        rho = attack.correlations()
        k10 = aes.round_keys[10]
        for j in (0, 5, 15):
            best_sample = np.abs(rho[j, k10[j]]).argmax()
            assert best_sample == 1

    def test_byte_ranks_zero_when_recovered(self):
        traces, cts, aes = synthetic_traces(3000)
        attack = CPAAttack(3)
        attack.add_traces(traces, cts)
        ranks = attack.byte_ranks(aes.round_keys[10])
        assert np.all(ranks == 0)

    def test_fails_gracefully_on_pure_noise(self):
        rng = np.random.default_rng(3)
        attack = CPAAttack(3)
        attack.add_traces(
            rng.normal(0, 1, (2000, 3)),
            rng.integers(0, 256, (2000, 16), dtype=np.uint8),
        )
        peaks = attack.peak_correlations()
        assert peaks.max() < 0.12  # nothing stands out

    def test_sample_window_restricts_work(self):
        traces, cts, aes = synthetic_traces(2000)
        attack = CPAAttack(3, sample_window=(1, 2))
        attack.add_traces(traces, cts)
        assert attack.correlations().shape == (16, 256, 1)
        np.testing.assert_array_equal(attack.best_guesses(), aes.round_keys[10])

    def test_window_excluding_leak_fails(self):
        traces, cts, aes = synthetic_traces(2000)
        attack = CPAAttack(3, sample_window=(0, 1))
        attack.add_traces(traces, cts)
        correct = np.sum(attack.best_guesses() == aes.round_keys[10])
        assert correct < 4


class TestIncremental:
    def test_incremental_equals_batch(self):
        traces, cts, _aes = synthetic_traces(1500)
        batch = CPAAttack(3)
        batch.add_traces(traces, cts)
        inc = CPAAttack(3)
        inc.add_traces(traces[:500], cts[:500])
        inc.add_traces(traces[500:900], cts[500:900])
        inc.add_traces(traces[900:], cts[900:])
        np.testing.assert_allclose(
            batch.correlations(), inc.correlations(), rtol=1e-9, atol=1e-12
        )

    def test_n_traces_tracks(self):
        traces, cts, _aes = synthetic_traces(100)
        attack = CPAAttack(3)
        attack.add_traces(traces[:40], cts[:40])
        attack.add_traces(traces[40:], cts[40:])
        assert attack.n_traces == 100


class TestCorrelationProperties:
    def test_bounded(self):
        traces, cts, _aes = synthetic_traces(1000)
        attack = CPAAttack(3)
        attack.add_traces(traces, cts)
        rho = attack.correlations()
        assert np.all(np.abs(rho) <= 1.0 + 1e-9)

    def test_invariant_to_trace_scaling(self):
        traces, cts, _aes = synthetic_traces(1000)
        a = CPAAttack(3)
        a.add_traces(traces, cts)
        b = CPAAttack(3)
        b.add_traces(traces * 7.5 + 3.0, cts)
        np.testing.assert_allclose(a.correlations(), b.correlations(), atol=1e-9)
