"""Ablation — the number of DSP blocks per sensor (the paper's n = 3).

The paper picks n = 3 empirically as "a balance of high sensitivity,
acceptable resource usage, and ease of calibration" and leaves the
optimal choice as future work.  This ablation sweeps n and measures the
three quantities that trade off:

* post-calibration voltage sensitivity (longer chain = bigger lever
  arm, until the settle-time spread outgrows the IDELAY phase range);
* DSP blocks consumed (the resource budget);
* calibration quality (the best consecutive-step readout change the
  sweep found — small values mean a hard-to-calibrate sensor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import make_rng
from repro.core import LeakyDSP, calibrate
from repro.errors import CalibrationError
from repro.experiments import common, registry
from repro.runtime import Engine
from repro.runtime.sharding import SeedLike, root_sequence


@dataclass
class ChainPoint:
    """Metrics for one chain length."""

    n_blocks: int
    sensitivity: float
    dsps_used: int
    calibration_step: float
    calibrated: bool
    activity_swing: float


@dataclass
class AblationChainResult:
    """The chain-length sweep."""

    points: List[ChainPoint] = field(default_factory=list)

    def formatted(self) -> List[str]:
        """Summary lines."""
        out = ["n   sensitivity[1/V]  DSPs  cal-step  swing(8 groups)"]
        for p in self.points:
            out.append(
                f"{p.n_blocks}   {p.sensitivity:12.0f}    {p.dsps_used:3d}   "
                f"{p.calibration_step:7.2f}   {p.activity_swing:7.1f}"
            )
        return out


def run_ablation_chain(
    chain_lengths: Sequence[int] = (1, 2, 3, 4, 5, 6),
    n_readouts: int = 1000,
    seed: int = 7,
    rng: SeedLike = 29,
    engine: Optional[Engine] = None,
) -> AblationChainResult:
    """Sweep the DSP chain length on the Fig. 3 testbed.  Without an
    ``engine`` the campaigns run on a serial one."""
    engine = engine or Engine()
    seeds = iter(root_sequence(rng).spawn(3 * len(chain_lengths)))
    result = AblationChainResult()
    for n in chain_lengths:
        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup)
        pblock = common.region_pblock(setup.device, 2)
        sensor = LeakyDSP(
            device=setup.device,
            n_blocks=n,
            clock=common.SENSOR_CLOCK,
            constants=setup.constants,
            seed=seed,
            name=f"leakydsp_n{n}",
        )
        sensor.place(setup.placer, pblock=pblock)
        try:
            cal = calibrate(sensor, rng=make_rng(next(seeds)))
            calibrated = True
            step = cal.best_step
        except CalibrationError:
            calibrated = False
            step = 0.0
        off, on = (
            engine.characterize_many(
                [sensor], setup.coupling, virus, level, n_readouts, seed=next(seeds)
            )[0]
            for level in (0, virus.n_groups)
        )
        result.points.append(
            ChainPoint(
                n_blocks=n,
                sensitivity=sensor.sensitivity(),
                dsps_used=n,
                calibration_step=step,
                calibrated=calibrated,
                activity_swing=float(np.mean(off) - np.mean(on)),
            )
        )
    return result


def render(result: AblationChainResult) -> List[str]:
    """Report lines."""
    return list(result.formatted())


def _metrics(result: AblationChainResult) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for p in result.points:
        out[f"n{p.n_blocks}_swing"] = round(p.activity_swing, 2)
        out[f"n{p.n_blocks}_calibrated"] = p.calibrated
    return out


@registry.register(
    "ablation-chain",
    title="Ablation — DSP chain length (paper picks n = 3)",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(
    config: registry.ExperimentConfig, engine: Engine
) -> AblationChainResult:
    params = config.params(
        quick={"chain_lengths": (1, 3), "n_readouts": 300}, paper={}
    )
    return run_ablation_chain(
        rng=np.random.SeedSequence(config.seed), engine=engine, **params
    )


run = registry.protocol_entry("ablation-chain")
