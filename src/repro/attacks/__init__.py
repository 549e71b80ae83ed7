"""End-to-end attacks built on the sensors.

* :mod:`repro.attacks.cpa` — incremental, vectorized correlation power
  analysis against the AES core (Section IV-B).
* :mod:`repro.attacks.key_rank` — histogram-convolution key-rank
  estimation with upper/lower bounds (the paper's evaluation metric).
* :mod:`repro.attacks.metrics` — traces-to-disclosure, guessing
  entropy, success rate.
* :mod:`repro.attacks.covert` — the power covert channel
  (Section IV-C).
"""

from repro.attacks.cpa import CPAAttack
from repro.attacks.covert import CovertChannel, CovertChannelConfig, CovertResult
from repro.attacks.key_rank import key_rank_bounds, scores_from_correlations
from repro.attacks.metrics import (
    evaluate_rank_point,
    guessing_entropy,
    rank_curve,
    streamed_rank_curves,
    traces_to_disclosure,
)

__all__ = [
    "CPAAttack",
    "CovertChannel",
    "CovertChannelConfig",
    "CovertResult",
    "key_rank_bounds",
    "scores_from_correlations",
    "evaluate_rank_point",
    "guessing_entropy",
    "rank_curve",
    "streamed_rank_curves",
    "traces_to_disclosure",
]
