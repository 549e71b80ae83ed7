"""Fig. 3 — sensor sensitivity under different victim activities.

The paper's first characterization: 8,000 power-virus instances in 8
groups; activating 0..8 groups sets 9 voltage levels; 2,000 readouts
are averaged per level for LeakyDSP and for the TDC baseline.  The
reported statistics are the Pearson correlation coefficient (linearity)
and the linear-regression coefficient (readout change per 1,000
instances).

Paper values: LeakyDSP r = -0.974, coefficient -3.45; TDC r = -0.996,
coefficient -1.09.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import linear_regression
from repro.experiments import common, registry
from repro.runtime import Engine
from repro.runtime.sharding import SeedLike, root_sequence


@dataclass
class SensorCurve:
    """One sensor's readout-vs-activity curve and its statistics."""

    sensor: str
    levels: List[int]
    mean_readouts: List[float]
    pearson_r: float
    #: Readout change per 1,000 activated instances.
    regression_coefficient: float


@dataclass
class Fig3Result:
    """Both sensors' curves."""

    curves: Dict[str, SensorCurve] = field(default_factory=dict)

    def rows(self) -> List[str]:
        """Paper-style summary lines."""
        out = []
        for curve in self.curves.values():
            out.append(
                f"{curve.sensor:>8}: Pearson r = {curve.pearson_r:+.3f}, "
                f"regression coefficient = {curve.regression_coefficient:+.2f} "
                f"per 1k instances"
            )
        return out


def run_fig3(
    n_instances: int = 8000,
    n_groups: int = 8,
    n_readouts: int = 2000,
    seed: int = 7,
    rng: SeedLike = 17,
    engine: Optional[Engine] = None,
) -> Fig3Result:
    """Reproduce Fig. 3.

    Both sensors are placed in the same region (the paper's fixed
    "given placement"): LeakyDSP in region 2's DSP columns, the TDC in
    region 2's fabric.  Readout sampling runs on ``engine`` (a serial
    one when omitted).
    """
    engine = engine or Engine()
    setup = common.Basys3Setup.create()
    virus = common.make_virus(setup, n_instances, n_groups)
    pblock = common.region_pblock(setup.device, 2)
    sensors = {
        "LeakyDSP": common.make_leakydsp(setup, pblock, seed=seed),
        "TDC": common.make_tdc(setup, pblock, seed=seed),
    }

    levels = list(range(n_groups + 1))
    seeds = iter(root_sequence(rng).spawn(len(sensors) * len(levels)))

    def sample(sensor, level):
        return engine.characterize(
            sensor, setup.coupling, virus, level, n_readouts, seed=next(seeds)
        )

    instances_per_group = n_instances // n_groups
    result = Fig3Result()
    for name, sensor in sensors.items():
        means = [float(np.mean(sample(sensor, level))) for level in levels]
        active_counts = np.array(levels) * instances_per_group
        reg = linear_regression(active_counts, means)
        result.curves[name] = SensorCurve(
            sensor=name,
            levels=levels,
            mean_readouts=means,
            pearson_r=reg.r_value,
            regression_coefficient=reg.slope * 1000.0,
        )
    return result


def render(result: Fig3Result) -> List[str]:
    """Paper-style report lines."""
    lines = ["(paper: LeakyDSP r=-0.974 coef=-3.45; TDC r=-0.996 coef=-1.09)"]
    lines.extend(result.rows())
    for curve in result.curves.values():
        readouts = ", ".join(f"{m:.1f}" for m in curve.mean_readouts)
        lines.append(f"{curve.sensor:>8} readouts by level: {readouts}")
    return lines


def _metrics(result: Fig3Result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, curve in result.curves.items():
        out[f"{name}_pearson_r"] = round(curve.pearson_r, 4)
        out[f"{name}_coef_per_1k"] = round(curve.regression_coefficient, 3)
    return out


@registry.register(
    "fig3",
    title="Fig. 3 — sensitivity under different victim activities",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(config: registry.ExperimentConfig, engine: Engine) -> Fig3Result:
    params = config.params(quick={"n_readouts": 300}, paper={})
    return run_fig3(rng=np.random.SeedSequence(config.seed), engine=engine, **params)


run = registry.protocol_entry("fig3")
