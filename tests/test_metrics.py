"""Tests for attack-progress metrics (rank curves, disclosure)."""

import numpy as np
import pytest

from repro.attacks.cpa import CPAAttack
from repro.attacks.metrics import (
    RankCurve,
    RankPoint,
    guessing_entropy,
    rank_curve,
    traces_to_disclosure,
)
from repro.errors import AttackError
from repro.traces.store import TraceSet
from repro.victims.aes.core import AES128
from repro.victims.aes.sbox import HW8

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture(scope="module")
def leaky_trace_set():
    """A synthetic trace set with strong last-round HD leakage."""
    rng = np.random.default_rng(0)
    n = 4000
    aes = AES128(KEY)
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    states = aes.round_states(pts)
    hd = HW8[states[:, 9] ^ states[:, 10]].sum(axis=1).astype(float)
    traces = np.column_stack(
        [rng.normal(0, 1, n), -hd + rng.normal(0, 3.0, n), rng.normal(0, 1, n)]
    )
    return TraceSet(
        traces=traces,
        plaintexts=pts,
        ciphertexts=states[:, 10],
        key=np.frombuffer(KEY, dtype=np.uint8),
    )


class TestRankCurve:
    def test_rank_decreases_and_discloses(self, leaky_trace_set):
        curve = rank_curve(leaky_trace_set, [500, 1000, 2000, 4000])
        uppers = [p.log2_upper for p in curve.points]
        assert uppers[-1] < uppers[0]
        assert curve.points[-1].recovered

    def test_disclosure_point(self, leaky_trace_set):
        curve = rank_curve(leaky_trace_set, [500, 1000, 2000, 4000])
        disclosed = curve.traces_to_disclosure
        assert disclosed is not None
        assert disclosed <= 4000

    def test_bounds_ordered(self, leaky_trace_set):
        curve = rank_curve(leaky_trace_set, [1000, 4000])
        for p in curve.points:
            assert p.log2_lower <= p.log2_upper

    def test_as_arrays(self, leaky_trace_set):
        curve = rank_curve(leaky_trace_set, [1000, 2000])
        n, lo, hi = curve.as_arrays()
        assert list(n) == [1000, 2000]
        assert lo.shape == hi.shape == (2,)

    def test_checkpoint_validation(self, leaky_trace_set):
        with pytest.raises(AttackError):
            rank_curve(leaky_trace_set, [])
        with pytest.raises(AttackError):
            rank_curve(leaky_trace_set, [2])
        with pytest.raises(AttackError):
            rank_curve(leaky_trace_set, [99999999])

    def test_duplicate_checkpoints_deduped(self, leaky_trace_set):
        curve = rank_curve(leaky_trace_set, [1000, 1000, 2000])
        assert [p.n_traces for p in curve.points] == [1000, 2000]

    def test_sample_window_passthrough(self, leaky_trace_set):
        curve = rank_curve(leaky_trace_set, [4000], sample_window=(1, 2))
        assert curve.points[-1].recovered


class TestTracesToDisclosure:
    def test_returns_grid_point(self, leaky_trace_set):
        n = traces_to_disclosure(leaky_trace_set, step=1000)
        assert n in (1000, 2000, 3000, 4000)

    def test_none_when_hopeless(self):
        rng = np.random.default_rng(1)
        ts = TraceSet(
            traces=rng.normal(0, 1, (2000, 3)),
            plaintexts=rng.integers(0, 256, (2000, 16), dtype=np.uint8),
            ciphertexts=rng.integers(0, 256, (2000, 16), dtype=np.uint8),
            key=np.frombuffer(KEY, dtype=np.uint8),
        )
        assert traces_to_disclosure(ts, step=1000) is None


class TestGuessingEntropy:
    def test_zero_when_recovered(self, leaky_trace_set):
        attack = CPAAttack(3)
        attack.add_traces(leaky_trace_set.traces, leaky_trace_set.ciphertexts)
        assert guessing_entropy(attack, KEY) == pytest.approx(0.0)

    def test_high_for_noise(self):
        rng = np.random.default_rng(2)
        attack = CPAAttack(3)
        attack.add_traces(
            rng.normal(0, 1, (1000, 3)),
            rng.integers(0, 256, (1000, 16), dtype=np.uint8),
        )
        assert guessing_entropy(attack, KEY) > 4.0


class TestRankCurveContainer:
    def test_no_disclosure(self):
        curve = RankCurve(points=[RankPoint(100, 50.0, 60.0, False)])
        assert curve.traces_to_disclosure is None

    def test_first_disclosure_wins(self):
        curve = RankCurve(
            points=[
                RankPoint(100, 5.0, 9.0, False),
                RankPoint(200, 0.0, 0.0, True),
                RankPoint(300, 0.0, 0.0, True),
            ]
        )
        assert curve.traces_to_disclosure == 200
