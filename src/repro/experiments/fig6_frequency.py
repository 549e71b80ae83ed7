"""Fig. 6 — impact of the AES clock frequency on the attack.

At the attacker's best placement (P6), the AES clock is swept over
20 / 33.3 / 50 / 100 MHz.  Key extraction gets harder with frequency:
the PDN low-pass increasingly smears the per-round current pulses and
fewer sensor samples land in each round.  At 100 MHz the paper cannot
recover the key within its default 60 k traces and extends the campaign
to 78 k.

Paper shape: traces-to-break increases monotonically with frequency;
100 MHz needs ~3x the 20 MHz count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments import common, registry
from repro.experiments.table1_traces import streamed_placement_curves
from repro.runtime import Engine
from repro.runtime.sharding import SeedLike, root_sequence
from repro.timing.sampling import ClockSpec


@dataclass
class FrequencyPoint:
    """Outcome at one AES frequency."""

    frequency_hz: float
    traces_to_break: Optional[int]
    n_collected: int
    extended: bool


@dataclass
class Fig6Result:
    """The frequency sweep."""

    placement: str
    points: List[FrequencyPoint] = field(default_factory=list)

    def formatted(self) -> List[str]:
        """Paper-style lines."""
        out = [f"placement {self.placement}:"]
        for p in self.points:
            broke = (
                f"{p.traces_to_break}" if p.traces_to_break else f">{p.n_collected}"
            )
            note = " (extended campaign)" if p.extended else ""
            out.append(f"  {p.frequency_hz/1e6:6.1f} MHz: {broke} traces{note}")
        return out


def run_fig6(
    frequencies: Sequence[float] = common.FIG6_FREQUENCIES,
    placement: str = "P6",
    n_traces: int = 60_000,
    extension: int = 20_000,
    step: int = 2_500,
    seed: int = 7,
    rng: SeedLike = 3,
    engine: Optional[Engine] = None,
) -> Fig6Result:
    """Reproduce Fig. 6: sweep the AES clock at the best placement,
    extending the campaign (like the paper's extra 20 k traces at
    100 MHz) whenever the default budget fails.

    Campaigns run on ``engine`` (a serial one when omitted) and stream
    into the CPA accumulator shard-by-shard; an extension simply keeps
    folding into the same accumulator.
    """
    engine = engine or Engine()
    # Two potential campaigns (main + extension) per frequency.
    campaign_rngs = iter(root_sequence(rng).spawn(2 * len(frequencies)))
    result = Fig6Result(placement=placement)
    for freq in frequencies:
        clock = ClockSpec(freq)
        [(curve, attack)] = streamed_placement_curves(
            engine,
            [placement],
            n_traces,
            step,
            "LeakyDSP",
            aes_clock=clock,
            seed=seed,
            rng=next(campaign_rngs),
        )
        extension_rng = next(campaign_rngs)
        extended = False
        n_collected = n_traces
        if curve.traces_to_disclosure is None and extension > 0:
            [(more, attack)] = streamed_placement_curves(
                engine,
                [placement],
                extension,
                step,
                "LeakyDSP",
                aes_clock=clock,
                seed=seed,
                rng=extension_rng,
                attacks=[attack],
                trace_offset=n_traces,
            )
            curve.points.extend(more.points)
            extended = True
            n_collected = n_traces + extension
        result.points.append(
            FrequencyPoint(
                frequency_hz=freq,
                traces_to_break=curve.traces_to_disclosure,
                n_collected=n_collected,
                extended=extended,
            )
        )
    return result


def render(result: Fig6Result) -> List[str]:
    """Paper-style report lines."""
    lines = ["(paper: efficiency decreases with frequency; 100 MHz needs 78k)"]
    lines.extend(result.formatted())
    return lines


def _metrics(result: Fig6Result) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for p in result.points:
        out[f"{p.frequency_hz/1e6:g}MHz_traces"] = p.traces_to_break
    return out


@registry.register(
    "fig6",
    title="Fig. 6 — impact of the AES frequency on the attack",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(config: registry.ExperimentConfig, engine: Engine) -> Fig6Result:
    params = config.params(
        quick={
            "frequencies": (20e6, 100e6),
            "n_traces": 30_000,
            "extension": 0,
            "step": 5_000,
        },
        paper={},
    )
    return run_fig6(rng=np.random.SeedSequence(config.seed), engine=engine, **params)


run = registry.protocol_entry("fig6")
