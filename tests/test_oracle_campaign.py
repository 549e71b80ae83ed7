"""Whole-campaign differential test: production path vs. the oracles.

A tiny streamed fan-out campaign runs through :class:`~repro.runtime.
Engine` twice: once on the production path (the shared fused kernel,
batched :class:`~repro.attacks.cpa.CPAAttack` consumers) and once with
the reference kernel injected into every spec and per-byte
:class:`~tests.oracles.PerByteCPA` consumers.  Every checkpoint's key
rank and every final accumulator state must match bit for bit, at one
and at two workers — the end-to-end form of the per-layer differential
suites in ``test_kernels.py``, ``test_cpa_batched.py`` and
``test_fanout.py``.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.attacks.cpa import CPAAttack
from repro.attacks.metrics import evaluate_rank_point
from repro.experiments import common
from repro.runtime import Engine
from repro.traces.acquisition import MultiSensorAcquisition
from repro.victims.aes.key_schedule import expand_key
from tests.oracles import REFERENCE_KERNEL, PerByteCPA

KEY = bytes(range(16))
N_TRACES = 600
SHARD = 256
CHECKPOINTS = [200, 450, 600]


@pytest.fixture(scope="module")
def specs():
    return common.placement_specs(("P1", "P6"))


def run_campaign(specs, consumer_type, workers):
    """Per-sensor ``(checkpoint rank points, final attack)``."""
    msa = MultiSensorAcquisition(specs)
    n_samples = msa.default_n_samples()
    window = common.last_round_window(specs[0].hw_model, n_samples)
    true_last_round = expand_key(KEY)[10]
    points = [[] for _ in specs]

    def on_checkpoint(index, done, attack):
        points[index].append(evaluate_rank_point(attack, true_last_round, done))

    attacks = Engine(workers=workers, shard_size=SHARD).stream_attack_many(
        msa, N_TRACES, key=KEY, seed=9, chunk_size=100,
        consumer_factory=partial(consumer_type, n_samples, window),
        checkpoints=CHECKPOINTS, on_checkpoint=on_checkpoint,
    )
    assert all(type(a) is consumer_type for a in attacks)
    return list(zip(points, attacks))


@pytest.fixture(scope="module")
def production(specs):
    return run_campaign(specs, CPAAttack, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_campaign_matches_production(specs, production, workers):
    oracle_specs = [
        dataclasses.replace(spec, kernel=REFERENCE_KERNEL) for spec in specs
    ]
    oracle = run_campaign(oracle_specs, PerByteCPA, workers)
    for (want_points, want), (got_points, got) in zip(production, oracle):
        assert [p.n_traces for p in got_points] == CHECKPOINTS
        assert got_points == want_points
        # Restack the oracle's per-byte dump into the production layout.
        restacked = CPAAttack(want.n_samples, want.sample_window)
        restacked.load_state_arrays(got.state_arrays())
        want_state = want.state_arrays()
        got_state = restacked.state_arrays()
        assert want_state.keys() == got_state.keys()
        for name in want_state:
            assert np.array_equal(got_state[name], want_state[name]), name
        assert np.array_equal(got.correlations(), want.correlations())


def test_production_campaign_identical_across_workers(specs, production):
    for (want_points, want), (got_points, got) in zip(
        production, run_campaign(specs, CPAAttack, workers=2)
    ):
        assert got_points == want_points
        for name, arr in want.state_arrays().items():
            assert np.array_equal(got.state_arrays()[name], arr), name
