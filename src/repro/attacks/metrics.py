"""Attack-progress metrics: rank curves, traces-to-disclosure,
guessing entropy.

These drive Table I (traces required to break the full key), Fig. 5 and
Fig. 6 (key rank vs. trace count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.cpa import CPAAttack
from repro.attacks.key_rank import key_rank_bounds, scores_from_correlations
from repro.errors import AttackError
from repro.traces.store import TraceSet
from repro.victims.aes.key_schedule import expand_key


@dataclass
class RankPoint:
    """Key-rank bounds after a given number of traces."""

    n_traces: int
    log2_lower: float
    log2_upper: float
    recovered: bool


@dataclass
class RankCurve:
    """A full rank-vs-traces curve plus the disclosure point."""

    points: List[RankPoint] = field(default_factory=list)

    @property
    def traces_to_disclosure(self) -> Optional[int]:
        """First trace count at which the key was recovered outright
        (rank upper bound collapsed and best guesses equal the key);
        ``None`` if never."""
        for p in self.points:
            if p.recovered:
                return p.n_traces
        return None

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n_traces, log2_lower, log2_upper)`` arrays for plotting."""
        n = np.array([p.n_traces for p in self.points])
        lo = np.array([p.log2_lower for p in self.points])
        hi = np.array([p.log2_upper for p in self.points])
        return n, lo, hi


def evaluate_rank_point(attack: CPAAttack, true_last_round, n_traces: int) -> RankPoint:
    """Key-rank bounds of one attack state, as a :class:`RankPoint`.

    "Broken" = the remaining key space is trivially enumerable (rank
    upper bound <= 2^8); the attacker tests the candidates.
    """
    peaks = attack.peak_correlations()
    scores = scores_from_correlations(peaks, attack.n_traces)
    lo, hi = key_rank_bounds(scores, true_last_round)
    return RankPoint(n_traces, lo, hi, hi <= 8.0)


def _validated_checkpoints(checkpoints: Sequence[int], n_traces: int) -> List[int]:
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints:
        raise AttackError("need at least one checkpoint")
    if checkpoints[0] < 4:
        raise AttackError("checkpoints must be >= 4 traces")
    if checkpoints[-1] > n_traces:
        raise AttackError(
            f"checkpoint {checkpoints[-1]} exceeds {n_traces} traces"
        )
    return checkpoints


def rank_curve(
    trace_set: TraceSet,
    checkpoints: Sequence[int],
    sample_window: Optional[Tuple[int, int]] = None,
) -> RankCurve:
    """Run the incremental CPA over a trace set and evaluate key-rank
    bounds at each checkpoint.

    The accumulator grows monotonically, so the whole curve costs one
    pass over the traces plus one correlation/rank evaluation per
    checkpoint.
    """
    checkpoints = _validated_checkpoints(checkpoints, len(trace_set))
    true_last_round = expand_key(trace_set.key)[10]
    attack = CPAAttack(trace_set.n_samples, sample_window=sample_window)
    curve = RankCurve()
    done = 0
    for cp in checkpoints:
        attack.add_traces(
            trace_set.traces[done:cp], trace_set.ciphertexts[done:cp]
        )
        done = cp
        curve.points.append(evaluate_rank_point(attack, true_last_round, cp))
    return curve


def streamed_rank_curve(
    engine,
    acquisition,
    n_traces: int,
    *,
    key,
    checkpoints: Sequence[int],
    seed=0,
    sample_window: Optional[Tuple[int, int]] = None,
    on_point: Optional[Callable[[RankPoint], None]] = None,
    attack: Optional[CPAAttack] = None,
    trace_offset: int = 0,
) -> Tuple[RankCurve, CPAAttack]:
    """Acquire a campaign through :meth:`repro.runtime.Engine.
    stream_attack` and evaluate key-rank bounds at each checkpoint —
    without ever materializing the trace matrix.

    Bit-identical to ``engine.collect(...)`` followed by
    :func:`rank_curve` with the same seed and checkpoints, at any
    worker count.  ``on_point`` receives each
    :class:`RankPoint` as soon as its checkpoint's shards have folded —
    the incremental progress feed for long campaigns.

    Pass ``attack`` (with ``trace_offset`` = traces it already holds)
    to extend an earlier campaign; checkpoints then refer to the
    combined trace count.

    Returns ``(curve, attack)`` so callers can keep accumulating.
    """
    checkpoints = _validated_checkpoints(
        [c - trace_offset for c in checkpoints], n_traces
    )
    true_last_round = expand_key(key)[10]
    n_samples = acquisition.default_n_samples()
    curve = RankCurve()

    def on_checkpoint(done: int, acc) -> None:
        point = evaluate_rank_point(acc, true_last_round, trace_offset + done)
        curve.points.append(point)
        if on_point is not None:
            on_point(point)

    attack = engine.stream_attack(
        acquisition,
        n_traces,
        key=key,
        consumer_factory=partial(CPAAttack, n_samples, sample_window),
        seed=seed,
        n_samples=n_samples,
        checkpoints=checkpoints,
        on_checkpoint=on_checkpoint,
        consumer=attack,
    )
    return curve, attack


def streamed_rank_curves(
    engine,
    acquisitions,
    n_traces: int,
    *,
    key,
    checkpoints: Sequence[int],
    seed=0,
    sample_window: Optional[Tuple[int, int]] = None,
    on_point: Optional[Callable[[int, RankPoint], None]] = None,
) -> List[Tuple[RankCurve, CPAAttack]]:
    """Fan-out counterpart of :func:`streamed_rank_curve`: one rank
    curve per sensor from a *single* victim campaign.

    ``acquisitions`` is whatever :meth:`repro.runtime.Engine.
    stream_attack_many` accepts (a ``MultiSensorAcquisition`` or a
    sequence of specs/harnesses sharing one kernel).  Each returned
    ``(curve, attack)`` pair is bit-identical to
    :func:`streamed_rank_curve` over that sensor alone with the same
    seed — the shared AES+PDN pass is computed once per shard instead
    of once per sensor.  ``on_point(sensor_index, point)`` fires per
    sensor as each checkpoint folds.
    """
    from repro.traces.acquisition import MultiSensorAcquisition

    checkpoints = _validated_checkpoints(checkpoints, n_traces)
    true_last_round = expand_key(key)[10]
    if not isinstance(acquisitions, MultiSensorAcquisition):
        acquisitions = MultiSensorAcquisition(list(acquisitions))
    n_samples = acquisitions.default_n_samples()
    curves = [RankCurve() for _ in range(len(acquisitions))]

    def on_checkpoint(sensor_index: int, done: int, acc) -> None:
        point = evaluate_rank_point(acc, true_last_round, done)
        curves[sensor_index].points.append(point)
        if on_point is not None:
            on_point(sensor_index, point)

    attacks = engine.stream_attack_many(
        acquisitions,
        n_traces,
        key=key,
        consumer_factory=partial(CPAAttack, n_samples, sample_window),
        seed=seed,
        n_samples=n_samples,
        checkpoints=checkpoints,
        on_checkpoint=on_checkpoint,
    )
    return list(zip(curves, attacks))


def traces_to_disclosure(
    trace_set: TraceSet,
    step: int = 1000,
    sample_window: Optional[Tuple[int, int]] = None,
) -> Optional[int]:
    """Traces needed to break the full key, evaluated on a uniform
    checkpoint grid (the Table I statistic)."""
    checkpoints = list(range(step, len(trace_set) + 1, step))
    return rank_curve(trace_set, checkpoints, sample_window).traces_to_disclosure


def guessing_entropy(attack: CPAAttack, key) -> float:
    """Mean log2 per-byte rank of the true key — a smoother progress
    metric than full-key rank for partial convergence."""
    true_last_round = expand_key(key)[10]
    ranks = attack.byte_ranks(true_last_round)
    return float(np.mean(np.log2(ranks + 1)))
