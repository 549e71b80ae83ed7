"""Ablation — what the IDELAY calibration buys.

LeakyDSP's robustness claim rests on post-deployment calibration: after
placement, the settle-time distribution sits at an arbitrary phase
relative to the capture clock, and without re-centering it the sensor
can saturate (readout pinned at 0 or 48, no voltage gain).  This
ablation measures the victim-induced readout swing with and without
calibration across the six Fig. 4 regions.

Expected shape: calibrated sensors swing strongly in every region;
uncalibrated sensors are erratic — some placements happen to land on
the edge and work, others saturate and sense almost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import make_rng
from repro.core import LeakyDSP, calibrate
from repro.experiments import common, registry
from repro.runtime import Engine
from repro.runtime.sharding import SeedLike, root_sequence


@dataclass
class CalibPoint:
    """Swing with/without calibration in one region."""

    region_index: int
    swing_calibrated: float
    swing_uncalibrated: float


@dataclass
class AblationCalibResult:
    """The calibration ablation."""

    points: List[CalibPoint] = field(default_factory=list)

    @property
    def worst_calibrated_swing(self) -> float:
        """Smallest calibrated swing over the regions."""
        return min(p.swing_calibrated for p in self.points)

    @property
    def worst_uncalibrated_swing(self) -> float:
        """Smallest uncalibrated swing over the regions."""
        return min(p.swing_uncalibrated for p in self.points)

    def formatted(self) -> List[str]:
        """Summary lines."""
        out = ["region  swing(calibrated)  swing(uncalibrated)"]
        for p in self.points:
            out.append(
                f"  R{p.region_index}     {p.swing_calibrated:10.1f}      "
                f"{p.swing_uncalibrated:10.1f}"
            )
        return out


def _swing(engine, sensor, setup, virus, n_readouts, seeds) -> float:
    off = engine.characterize(
        sensor, setup.coupling, virus, 0, n_readouts, seed=next(seeds)
    )
    on = engine.characterize(
        sensor, setup.coupling, virus, virus.n_groups, n_readouts, seed=next(seeds)
    )
    return float(np.mean(off) - np.mean(on))


def run_ablation_calib(
    n_readouts: int = 1000,
    seed: int = 7,
    rng: SeedLike = 31,
    engine: Optional[Engine] = None,
) -> AblationCalibResult:
    """Measure calibrated vs. uncalibrated swings across the six
    regions.  Each region uses a distinct sensor seed, so the
    uncalibrated phase is a representative sample of process spread.
    Without an ``engine`` the campaigns run on a serial one."""
    engine = engine or Engine()
    # Per region: calibrate + 2x2 characterize calls.
    seeds = iter(root_sequence(rng).spawn(5 * len(common.FIG4_REGIONS)))
    setup = common.Basys3Setup.create()
    virus = common.make_virus(setup)
    result = AblationCalibResult()
    for index in common.FIG4_REGIONS:
        pblock = common.region_pblock(setup.device, index)
        sensor = LeakyDSP(
            device=setup.device,
            clock=common.SENSOR_CLOCK,
            constants=setup.constants,
            seed=seed + 10 * index,
            name=f"leakydsp_cal_{index}",
        )
        sensor.place(setup.placer, pblock=pblock)
        cal_rng = make_rng(next(seeds))
        swing_raw = _swing(engine, sensor, setup, virus, n_readouts, seeds)
        calibrate(sensor, rng=cal_rng)
        swing_cal = _swing(engine, sensor, setup, virus, n_readouts, seeds)
        result.points.append(
            CalibPoint(
                region_index=index,
                swing_calibrated=swing_cal,
                swing_uncalibrated=swing_raw,
            )
        )
    return result


def render(result: AblationCalibResult) -> List[str]:
    """Report lines."""
    lines = list(result.formatted())
    lines.append(
        f"worst-case swing: calibrated {result.worst_calibrated_swing:.1f}, "
        f"uncalibrated {result.worst_uncalibrated_swing:.1f}"
    )
    return lines


def _metrics(result: AblationCalibResult) -> Dict[str, float]:
    return {
        "worst_calibrated_swing": round(result.worst_calibrated_swing, 2),
        "worst_uncalibrated_swing": round(result.worst_uncalibrated_swing, 2),
    }


@registry.register(
    "ablation-calib",
    title="Ablation — IDELAY calibration vs. none (readout swing, 8 groups)",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(
    config: registry.ExperimentConfig, engine: Engine
) -> AblationCalibResult:
    params = config.params(quick={"n_readouts": 300}, paper={})
    return run_ablation_calib(
        rng=np.random.SeedSequence(config.seed), engine=engine, **params
    )


run = registry.protocol_entry("ablation-calib")
