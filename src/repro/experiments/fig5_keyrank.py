"""Fig. 5 — key-rank estimation vs. trace count per placement.

Fig. 5(a) rates all eight placements by their key rank at 20 k traces;
Fig. 5(b) plots the rank bounds vs. trace count for five selected
placements (best, worst, closest to the victim, two intermediates).

Paper shape: rank falls with traces everywhere, at placement-dependent
speed; the ordering matches the coupling to the victim through the
non-uniform PDN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.metrics import RankCurve
from repro.config import RngLike, make_rng
from repro.experiments import common, registry
from repro.experiments.table1_traces import (
    collect_placement_traces,
    disclosure_curve,
    streamed_placement_curves,
)
from repro.runtime import Engine, ProgressEvent
from repro.runtime.sharding import root_sequence


@dataclass
class Fig5Result:
    """Rank curves per placement plus the 20 k-trace rating."""

    curves: Dict[str, RankCurve] = field(default_factory=dict)
    rating_at: int = 20_000

    def rank_at_rating_point(self, placement: str) -> Optional[float]:
        """log2 upper rank at the Fig. 5(a) rating trace count."""
        for p in self.curves[placement].points:
            if p.n_traces >= self.rating_at:
                return p.log2_upper
        return None

    def rating(self) -> List[tuple]:
        """Placements sorted best (lowest rank at 20 k) to worst."""
        rated = [
            (name, self.rank_at_rating_point(name)) for name in self.curves
        ]
        return sorted(rated, key=lambda kv: (kv[1] is None, kv[1]))

    def series(self, placement: str):
        """``(n_traces, log2_lower, log2_upper)`` arrays for one
        placement — the Fig. 5(b) curves."""
        return self.curves[placement].as_arrays()


def _rank_progress(placement: str, n_traces: int, engine: Engine):
    """Forward each incremental rank point through the engine's
    progress hook (kind ``"keyrank"``)."""
    if engine.progress is None:
        return None

    def on_point(point) -> None:
        engine.progress(
            ProgressEvent(
                kind="keyrank",
                done=point.n_traces,
                total=n_traces,
                detail=(
                    f"{placement}: log2 rank <= {point.log2_upper:.1f}"
                    + (" (broken)" if point.recovered else "")
                ),
                # Full-precision bounds: relayed checkpoints (campaign
                # service streams) must be bit-identical to the curve.
                payload={
                    "placement": placement,
                    "n_traces": int(point.n_traces),
                    "log2_lower": float(point.log2_lower),
                    "log2_upper": float(point.log2_upper),
                    "recovered": bool(point.recovered),
                },
            )
        )

    return on_point


def run_fig5(
    placements: Sequence[str] = common.FIG5_PLACEMENTS,
    n_traces: int = 60_000,
    step: int = 2_500,
    rating_at: int = 20_000,
    seed: int = 7,
    rng: RngLike = 3,
    engine: Optional[Engine] = None,
    chunk_size: Optional[int] = None,
) -> Fig5Result:
    """Reproduce Fig. 5 for the selected placements.

    With an ``engine``, campaigns stream shard-by-shard into the CPA
    accumulators — bit-identical rank curves, peak memory bounded by
    one shard instead of the whole campaign, and key-rank progress
    reported incrementally through the engine's progress hook.  All
    placements ride one fan-out campaign
    (:func:`~repro.experiments.table1_traces.
    streamed_placement_curves`, the shared AES+PDN pass paid once per
    shard) on RNG child 0, so each placement's curve (and its cache
    blocks) is identical to streaming that placement alone.
    """
    result = Fig5Result(rating_at=rating_at)
    if engine is None:
        gen = make_rng(rng)
        campaign_rngs = iter(lambda: gen, None)
        for placement in placements:
            ts = collect_placement_traces(
                placement,
                n_traces,
                "LeakyDSP",
                seed=seed,
                rng=next(campaign_rngs),
                engine=engine,
            )
            result.curves[placement] = disclosure_curve(ts, step)
        return result

    campaign_rng = root_sequence(rng).spawn(1)[0]
    progress = [_rank_progress(p, n_traces, engine) for p in placements]

    def on_point(index: int, point) -> None:
        if progress[index] is not None:
            progress[index](point)

    pairs = streamed_placement_curves(
        engine,
        placements,
        n_traces,
        step,
        "LeakyDSP",
        seed=seed,
        rng=campaign_rng,
        chunk_size=chunk_size,
        on_point=on_point,
    )
    for placement, (curve, _attack) in zip(placements, pairs):
        result.curves[placement] = curve
    return result


def render(result: Fig5Result) -> List[str]:
    """Paper-style report lines."""
    lines = [
        "(paper: placement-dependent convergence; bounds tighten to 1)",
        f"rating at {result.rating_at} traces (log2 upper rank):",
    ]
    for name, rank in result.rating():
        shown = f"{rank:.1f}" if rank is not None else "n/a"
        lines.append(f"  {name}: {shown}")
    for name, curve in result.curves.items():
        n, lo, hi = curve.as_arrays()
        pts = ", ".join(f"{int(a/1000)}k:{b:.0f}" for a, b in zip(n, hi))
        lines.append(f"  {name} upper-bound curve: {pts}")
    return lines


def _metrics(result: Fig5Result) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for name in result.curves:
        rank = result.rank_at_rating_point(name)
        out[f"{name}_log2_rank_at_{result.rating_at}"] = (
            round(rank, 2) if rank is not None else None
        )
    return out


@registry.register(
    "fig5",
    title="Fig. 5 — key-rank estimation per placement",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(config: registry.ExperimentConfig, engine: Engine) -> Fig5Result:
    params = config.params(
        quick={
            "placements": ("P6",),
            "n_traces": 20_000,
            "step": 5_000,
            "rating_at": 10_000,
        },
        paper={},
    )
    params.setdefault("chunk_size", config.chunk_size)
    return run_fig5(rng=np.random.SeedSequence(config.seed), engine=engine, **params)


run = registry.protocol_entry("fig5")


def main() -> None:
    """Print the Fig. 5 reproduction."""
    result = run_fig5()
    print("Fig. 5 — key-rank estimation per placement")
    for line in render(result):
        print(line)


if __name__ == "__main__":
    main()
