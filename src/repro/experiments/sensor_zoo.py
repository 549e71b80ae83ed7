"""Extension — the full sensor zoo on one workload.

The paper compares LeakyDSP against the TDC only (it cannot co-locate
them for more); with a simulated substrate we can line up every sensor
family the literature offers — LeakyDSP, TDC, RDS and the RO counter —
on the identical Fig. 3 workload and placement region, measuring:

* linearity (Pearson r of readout vs. activity),
* granularity (|regression slope| per 1,000 virus instances),
* fabric/DSP resource cost,
* whether today's bitstream scrutiny admits the design.

This is the comparison table a defender would want when deciding what
to scan for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.stats import linear_regression
from repro.config import make_rng
from repro.core import LeakyDSP, calibrate
from repro.defense.checker import BitstreamChecker
from repro.experiments import common, registry
from repro.fpga.bitstream import generate_bitstream
from repro.runtime import Engine
from repro.runtime.sharding import SeedLike, root_sequence
from repro.sensors import RDS, RingOscillatorSensor, TDC


@dataclass
class ZooRow:
    """One sensor's comparison metrics."""

    sensor: str
    pearson_r: float
    granularity: float
    luts: int
    ffs: int
    carries: int
    dsps: int
    passes_bitstream_check: bool


@dataclass
class SensorZooResult:
    """The comparison table."""

    rows: List[ZooRow] = field(default_factory=list)

    def row(self, sensor: str) -> ZooRow:
        """Look a sensor's row up by name."""
        for r in self.rows:
            if r.sensor == sensor:
                return r
        raise KeyError(sensor)

    def formatted(self) -> List[str]:
        """Table lines."""
        out = ["sensor     r       gran/1k  LUT  FF   CARRY DSP  checker"]
        for r in self.rows:
            verdict = "pass" if r.passes_bitstream_check else "REJECT"
            out.append(
                f"{r.sensor:<9} {r.pearson_r:+.3f}  {r.granularity:7.2f}  "
                f"{r.luts:4d} {r.ffs:4d} {r.carries:4d} {r.dsps:4d}  {verdict}"
            )
        return out


def _resource_counts(netlist) -> Dict[str, int]:
    counts = netlist.count_by_type()
    return {
        "LUT": counts.get("LUT", 0),
        "FDRE": counts.get("FDRE", 0),
        "CARRY4": counts.get("CARRY4", 0),
        "DSP": counts.get("DSP48E1", 0) + counts.get("DSP48E2", 0),
    }


def run_sensor_zoo(
    n_readouts: int = 1000,
    seed: int = 7,
    rng: SeedLike = 43,
    engine: Optional[Engine] = None,
) -> SensorZooResult:
    """Characterize every sensor family on the Fig. 3 workload.

    Every sensor is placed and calibrated up front (one seed per
    non-RO calibration), then the whole zoo is characterized per
    activity level in one fan-out campaign on ``engine`` (a serial one
    when omitted) — each sensor's readouts identical to a
    single-sensor ``engine.characterize`` at that seed.
    """
    engine = engine or Engine()
    setup = common.Basys3Setup.create()
    virus = common.make_virus(setup)
    pblock = common.region_pblock(setup.device, 2)
    checker = BitstreamChecker()

    sensors = {
        "LeakyDSP": LeakyDSP(
            device=setup.device, clock=common.SENSOR_CLOCK,
            constants=setup.constants, seed=seed, name="zoo_leakydsp",
        ),
        "TDC": TDC(
            device=setup.device, clock=common.SENSOR_CLOCK,
            constants=setup.constants, seed=seed, name="zoo_tdc",
        ),
        "RDS": RDS(
            device=setup.device, clock=common.SENSOR_CLOCK,
            constants=setup.constants, seed=seed, name="zoo_rds",
        ),
        "RO": RingOscillatorSensor(
            device=setup.device, constants=setup.constants, name="zoo_ro",
        ),
    }

    result = SensorZooResult()
    levels = np.arange(virus.n_groups + 1)
    instances = levels * virus.instances_per_group

    def zoo_row(name, sensor, means, placement) -> ZooRow:
        fit = linear_regression(instances, means)
        bitstream = generate_bitstream(sensor.netlist(), placement)
        res = _resource_counts(sensor.netlist())
        return ZooRow(
            sensor=name,
            pearson_r=fit.r_value,
            granularity=abs(fit.slope * 1000.0),
            luts=res["LUT"],
            ffs=res["FDRE"],
            carries=res["CARRY4"],
            dsps=res["DSP"],
            passes_bitstream_check=checker.accepts(bitstream),
        )

    n_calibrations = sum(1 for name in sensors if name != "RO")
    seeds = iter(root_sequence(rng).spawn(n_calibrations + len(levels)))
    placements = {}
    for name, sensor in sensors.items():
        placements[name] = sensor.place(setup.placer, pblock=pblock)
        if name != "RO":  # the RO counter needs no phase calibration
            calibrate(sensor, rng=make_rng(next(seeds)))
    means: Dict[str, List[float]] = {name: [] for name in sensors}
    for level in levels:
        outs = engine.characterize_many(
            list(sensors.values()), setup.coupling, virus, int(level),
            n_readouts, seed=next(seeds),
        )
        for name, out in zip(sensors, outs):
            means[name].append(float(np.mean(out)))
    for name, sensor in sensors.items():
        result.rows.append(zoo_row(name, sensor, means[name], placements[name]))
    return result


def render(result: SensorZooResult) -> List[str]:
    """Report lines."""
    return list(result.formatted())


def _metrics(result: SensorZooResult) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for r in result.rows:
        out[f"{r.sensor}_pearson_r"] = round(r.pearson_r, 4)
        out[f"{r.sensor}_checker_pass"] = r.passes_bitstream_check
    return out


@registry.register(
    "sensor-zoo",
    title="Extension — the sensor zoo on the Fig. 3 workload",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(config: registry.ExperimentConfig, engine: Engine) -> SensorZooResult:
    params = config.params(quick={"n_readouts": 200}, paper={})
    return run_sensor_zoo(
        rng=np.random.SeedSequence(config.seed), engine=engine, **params
    )


run = registry.protocol_entry("sensor-zoo")
