"""Tests for key-rank estimation (histogram convolution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.key_rank import (
    _tail_mass,
    key_rank_bounds,
    scores_from_correlations,
)
from repro.errors import AttackError


def _scores_with_true_ranks(per_byte_rank, rng=None, spread=1.0):
    """Scores where the true byte (index 0 everywhere) has a known
    per-byte rank."""
    rng = rng or np.random.default_rng(0)
    scores = rng.normal(0.0, spread, (16, 256))
    true = np.zeros(16, dtype=np.intp)
    for j in range(16):
        order = np.sort(scores[j])[::-1]
        # A rank-0 byte gets a realistic margin above the runner-up (as
        # a converged CPA would produce), not an epsilon tie.
        scores[j, 0] = order[per_byte_rank[j]] + (
            0.5 * spread if per_byte_rank[j] == 0 else 0.0
        )
    return scores, true


class TestScores:
    def test_shape_preserved(self):
        rho = np.random.default_rng(0).uniform(0, 0.1, (16, 256))
        z = scores_from_correlations(rho, 1000)
        assert z.shape == (16, 256)

    def test_monotone_in_rho(self):
        rho = np.zeros((16, 256))
        rho[0, 0], rho[0, 1] = 0.02, 0.05
        z = scores_from_correlations(rho, 1000)
        assert z[0, 1] > z[0, 0]

    def test_scales_with_trace_count(self):
        rho = np.full((16, 256), 0.05)
        z1 = scores_from_correlations(rho, 100)
        z2 = scores_from_correlations(rho, 10_000)
        assert np.all(z2 > z1)

    def test_negative_rho_uses_magnitude(self):
        rho = np.zeros((16, 256))
        rho[0, 0] = -0.08
        z = scores_from_correlations(rho, 500)
        assert z[0, 0] > 0

    def test_too_few_traces_rejected(self):
        with pytest.raises(AttackError):
            scores_from_correlations(np.zeros((16, 256)), 3)

    def test_bad_shape_rejected(self):
        with pytest.raises(AttackError):
            scores_from_correlations(np.zeros((16, 99)), 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_correlation_rejected(self, bad):
        rho = np.zeros((16, 256))
        rho[3, 7] = bad
        with pytest.raises(AttackError, match="finite"):
            scores_from_correlations(rho, 100)


class TestRankBounds:
    def test_recovered_key_rank_one(self):
        scores, true = _scores_with_true_ranks([0] * 16)
        lo, hi = key_rank_bounds(scores, true)
        assert lo == 0.0
        assert hi < 12  # tight upper bound

    def test_no_information_full_space(self):
        lo, hi = key_rank_bounds(np.ones((16, 256)), np.zeros(16, dtype=np.intp))
        assert (lo, hi) == (0.0, 128.0)

    def test_bounds_ordered(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(0, 1, (16, 256))
        lo, hi = key_rank_bounds(scores, rng.integers(0, 256, 16))
        assert lo <= hi

    def test_partial_recovery_in_plausible_range(self):
        # 12 bytes at rank 0, 4 bytes at rank ~19: the true rank is
        # bounded by 20^4 ~ 2^17.3 times small polynomial factors.
        scores, true = _scores_with_true_ranks([0] * 12 + [19] * 4)
        lo, hi = key_rank_bounds(scores, true)
        assert 8 < hi < 40
        assert lo <= hi

    def test_worse_bytes_raise_rank(self):
        easy, true = _scores_with_true_ranks([0] * 14 + [5] * 2)
        hard, _ = _scores_with_true_ranks([0] * 14 + [120] * 2)
        _, hi_easy = key_rank_bounds(easy, true)
        _, hi_hard = key_rank_bounds(hard, true)
        assert hi_hard > hi_easy

    def test_more_bins_tighten_bounds(self):
        scores, true = _scores_with_true_ranks([3] * 16)
        lo1, hi1 = key_rank_bounds(scores, true, n_bins=256)
        lo2, hi2 = key_rank_bounds(scores, true, n_bins=4096)
        assert (hi2 - lo2) <= (hi1 - lo1) + 1e-9

    def test_two_byte_exhaustive_ground_truth(self):
        """With only 2 informative bytes (the rest fully recovered),
        the rank can be enumerated exactly; the bounds must bracket it."""
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 1.0, (16, 256))
        true = rng.integers(0, 256, 16)
        for j in range(14):
            scores[j, true[j]] = scores[j].max() + 10.0  # certain bytes
        # Exhaustive rank over the two free bytes:
        t14, t15 = scores[14, true[14]], scores[15, true[15]]
        total = t14 + t15
        grid = scores[14][:, None] + scores[15][None, :]
        exact_rank = int(np.count_nonzero(grid > total))
        lo, hi = key_rank_bounds(scores, true, n_bins=4096)
        exact_log2 = np.log2(max(exact_rank, 1))
        assert lo - 0.8 <= exact_log2 <= hi + 0.8

    def test_bad_shapes_rejected(self):
        with pytest.raises(AttackError):
            key_rank_bounds(np.zeros((16, 99)), np.zeros(16, dtype=np.intp))
        with pytest.raises(AttackError):
            key_rank_bounds(np.zeros((16, 256)), np.zeros(15, dtype=np.intp))

    @pytest.mark.parametrize("byte", [-1, 256, 1000])
    def test_key_byte_out_of_range_rejected(self, byte):
        true = np.zeros(16, dtype=np.int64)
        true[5] = byte
        with pytest.raises(AttackError, match="0..255"):
            key_rank_bounds(np.random.default_rng(0).normal(size=(16, 256)), true)

    @pytest.mark.parametrize("byte", [3.7, np.nan, np.inf])
    def test_non_integer_key_byte_rejected(self, byte):
        true = np.zeros(16)
        true[2] = byte
        with pytest.raises(AttackError, match="integers"):
            key_rank_bounds(np.random.default_rng(0).normal(size=(16, 256)), true)

    def test_integral_key_bytes_of_any_dtype_accepted(self):
        scores = np.random.default_rng(2).normal(size=(16, 256))
        true = np.random.default_rng(3).integers(0, 256, 16)
        want = key_rank_bounds(scores, true)
        assert key_rank_bounds(scores, true.astype(np.uint8)) == want
        assert key_rank_bounds(scores, true.astype(np.float64)) == want
        assert key_rank_bounds(scores, true.tolist()) == want

    @pytest.mark.parametrize("n_bins", [1, 0, -4, 16.0, "1024"])
    def test_bad_bin_count_rejected(self, n_bins):
        with pytest.raises(AttackError, match="n_bins"):
            key_rank_bounds(
                np.random.default_rng(0).normal(size=(16, 256)),
                np.zeros(16, dtype=np.intp),
                n_bins=n_bins,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.random.default_rng(0).normal(size=(16, 256))
        scores[9, 100] = bad
        with pytest.raises(AttackError, match="finite"):
            key_rank_bounds(scores, np.zeros(16, dtype=np.intp))


def _full_chain_mass(bins, n_bins, b):
    """The rank read of the full convolution chain, the oracle
    ``_tail_mass`` must match bit for bit: all 15 ``np.convolve`` steps
    over every bin, then the reverse cumulative sum read at ``b``."""
    size = n_bins + 1
    dist = np.zeros(size)
    np.add.at(dist, bins[0], 1.0)
    for j in range(1, 16):
        h = np.zeros(size)
        np.add.at(h, bins[j], 1.0)
        dist = np.convolve(dist, h)
    cum_from_top = np.cumsum(dist[::-1])[::-1]
    if b <= 0:
        return float(cum_from_top[0])
    if b >= dist.shape[0]:
        return 0.0
    return float(cum_from_top[b])


def _rank_reads(scores, true, n_bins):
    """The two ``(bins, threshold)`` reads behind the upper and the
    lower bound, binned as ``key_rank_bounds`` bins them."""
    lo, hi = scores.min(), scores.max()
    width = (hi - lo) / (n_bins - 1)
    bins_down = np.clip(
        np.floor((scores - lo) / width).astype(np.int64), 0, n_bins - 1
    )
    bins_up = bins_down + 1
    rows = np.arange(16)
    return [
        (bins_up, int(bins_down[rows, true].sum())),
        (bins_down, int(bins_up[rows, true].sum()) + 1),
    ]


def _bounds(upper_mass, lower_mass):
    upper = float(np.log2(max(upper_mass, 1.0)))
    lower = float(np.log2(max(lower_mass + 1.0, 1.0)))
    return (min(lower, upper), upper)


SCORE_KINDS = ("noise", "boosted", "top", "bottom")


def _score_case(kind, seed, boost, n_boosted):
    """One score set of a kind: plain noise, ``n_boosted`` true bytes
    raised by ``boost``, or every true byte at the top (the lower
    bound's threshold lands past the last bin) or the bottom bin (the
    upper bound's threshold is 0)."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, 1.0, (16, 256))
    true = rng.integers(0, 256, 16)
    rows = np.arange(16)
    if kind == "boosted":
        scores[rows[:n_boosted], true[:n_boosted]] += boost
    elif kind == "top":
        scores[rows, true] = scores.max()
    elif kind == "bottom":
        scores[rows, true] = scores.min()
    return scores, true


class TestTailOnlyConvolution:
    """The tail-only convolution is an exact rewrite of the full chain:
    the rank digests hash ``float.hex`` of the bounds, and the golden
    rank curves compare only to a tolerance, so these tests pin the
    bits."""

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    @pytest.mark.parametrize(
        "n_bins, examples", [(2, 15), (16, 15), (256, 10), (1024, 4), (4096, 1)]
    )
    def test_bit_identical_to_full_chain(self, n_bins, examples, kind):
        @settings(max_examples=examples)
        @given(
            seed=st.integers(0, 2**32 - 1),
            boost=st.floats(0.0, 8.0),
            n_boosted=st.integers(1, 16),
        )
        def check(seed, boost, n_boosted):
            scores, true = _score_case(kind, seed, boost, n_boosted)
            reads = _rank_reads(scores, true, n_bins)
            want = [_full_chain_mass(bins, n_bins, b) for bins, b in reads]
            got = [_tail_mass(bins, n_bins, b) for bins, b in reads]
            assert [m.hex() for m in got] == [m.hex() for m in want]
            bounds = key_rank_bounds(scores, true, n_bins=n_bins)
            assert [v.hex() for v in bounds] == [v.hex() for v in _bounds(*want)]

        check()

    @pytest.mark.parametrize("n_bins", [2, 3, 16])
    def test_every_threshold_matches(self, n_bins):
        # Every b from below 0 to past the last bin, so each step's
        # slice start meets both of its clamps.
        bins = np.random.default_rng(n_bins).integers(0, n_bins + 1, (16, 256))
        for b in range(-3, 16 * n_bins + 4):
            got = _tail_mass(bins, n_bins, b)
            assert got.hex() == _full_chain_mass(bins, n_bins, b).hex(), b

    @pytest.mark.parametrize("n_bins", [256, 1024])
    def test_edge_thresholds_match(self, n_bins):
        bins = np.random.default_rng(n_bins).integers(0, n_bins + 1, (16, 256))
        last = 16 * n_bins
        for b in (-1, 0, 1, n_bins, last - n_bins, last - 1, last, last + 1, last + 9):
            got = _tail_mass(bins, n_bins, b)
            assert got.hex() == _full_chain_mass(bins, n_bins, b).hex(), b
