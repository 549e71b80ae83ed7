"""Fig. 4 — sensor sensitivity under different placements.

8,000 power-virus instances pinned to the victim boxes (the paper's
regions 1-2); LeakyDSP (and the TDC baseline) is Pblocked into each of
the six clock regions in turn, and 2,000 readouts are averaged with the
virus fully off and fully on.  The figure of merit is the off-on
readout delta per region.

Paper shape: the sensor senses the fluctuation in *all* six regions;
region 2 performs best; regions 5 and 6 (farthest) are worst but still
clearly sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.experiments import common, registry
from repro.runtime import Engine
from repro.runtime.sharding import SeedLike, root_sequence


@dataclass
class PlacementPoint:
    """Off/on readouts of one sensor in one region."""

    region_index: int
    region_name: str
    readout_off: float
    readout_on: float

    @property
    def delta(self) -> float:
        """Readout swing caused by the victim (off minus on; positive
        for droop-sensing sensors)."""
        return self.readout_off - self.readout_on


@dataclass
class Fig4Result:
    """Per-sensor, per-region sensitivity."""

    points: Dict[str, List[PlacementPoint]] = field(default_factory=dict)

    def best_region(self, sensor: str) -> int:
        """Region index with the largest swing."""
        pts = self.points[sensor]
        return max(pts, key=lambda p: p.delta).region_index

    def rows(self) -> List[str]:
        """Paper-style summary lines."""
        out = []
        for sensor, pts in self.points.items():
            deltas = ", ".join(f"R{p.region_index}:{p.delta:.1f}" for p in pts)
            out.append(f"{sensor:>8} off-on readout delta by region: {deltas}")
        return out


def run_fig4(
    n_instances: int = 8000,
    n_groups: int = 8,
    n_readouts: int = 2000,
    seed: int = 7,
    rng: SeedLike = 23,
    include_tdc: bool = True,
    engine: Optional[Engine] = None,
) -> Fig4Result:
    """Reproduce Fig. 4 for LeakyDSP (and optionally the TDC).

    Each sensor family characterizes all six regions in *two* fan-out
    campaigns (virus off, virus on) through
    :meth:`~repro.runtime.Engine.characterize_many` on ``engine`` (a
    serial one when omitted) — per-region results identical to six
    single-sensor campaigns with those seeds.
    """
    engine = engine or Engine()
    setup = common.Basys3Setup.create()
    virus = common.make_virus(setup, n_instances, n_groups)

    sensor_makers = {"LeakyDSP": common.make_leakydsp}
    if include_tdc:
        sensor_makers["TDC"] = common.make_tdc

    result = Fig4Result()
    seeds = iter(root_sequence(rng).spawn(2 * len(sensor_makers)))
    for name, maker in sensor_makers.items():
        sensors = common.region_sensors(setup, maker, seed=seed)
        offs = engine.characterize_many(
            sensors, setup.coupling, virus, 0, n_readouts, seed=next(seeds)
        )
        ons = engine.characterize_many(
            sensors, setup.coupling, virus, n_groups, n_readouts, seed=next(seeds)
        )
        result.points[name] = [
            PlacementPoint(
                region_index=index,
                region_name=region_name,
                readout_off=float(np.mean(offs[i])),
                readout_on=float(np.mean(ons[i])),
            )
            for i, (index, region_name) in enumerate(common.FIG4_REGIONS.items())
        ]
    return result


def render(result: Fig4Result) -> List[str]:
    """Paper-style report lines."""
    lines = ["(paper: sensed in all six regions; best in region 2; 5-6 worst)"]
    lines.extend(result.rows())
    for sensor in result.points:
        lines.append(f"{sensor:>8} best region: {result.best_region(sensor)}")
    return lines


def _metrics(result: Fig4Result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for sensor, pts in result.points.items():
        out[f"{sensor}_best_region"] = result.best_region(sensor)
        out[f"{sensor}_max_delta"] = round(max(p.delta for p in pts), 3)
    return out


@registry.register(
    "fig4",
    title="Fig. 4 — sensitivity under different placements",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(config: registry.ExperimentConfig, engine: Engine) -> Fig4Result:
    params = config.params(quick={"n_readouts": 300}, paper={})
    return run_fig4(rng=np.random.SeedSequence(config.seed), engine=engine, **params)


run = registry.protocol_entry("fig4")
