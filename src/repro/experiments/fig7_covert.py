"""Fig. 7 — covert-channel performance vs. bit time.

On the AXU3EGB (ZU3EG) model, a sender (8,000 power-virus instances)
and a LeakyDSP receiver share the die.  Bit times from 2 ms to 7.5 ms
are swept, 10 kb of random data per configuration, 10 runs.

Paper values: BER stabilizes below 1% above 3.5 ms and rises below
3 ms; the recommended operating point is 4 ms with BER 0.24% and a
transmission rate of 247.94 b/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.covert import CovertChannel, CovertChannelConfig
from repro.config import RngLike, make_rng
from repro.experiments import common, registry
from repro.fpga.placement import Pblock
from repro.runtime import Engine

#: Paper's swept bit times [s].
BIT_TIMES: Sequence[float] = (2e-3, 2.5e-3, 3e-3, 3.5e-3, 4e-3, 5e-3, 6e-3, 7.5e-3)


@dataclass
class CovertPoint:
    """Averaged channel metrics at one bit time."""

    bit_time: float
    ber: float
    transmission_rate: float
    n_runs: int


@dataclass
class Fig7Result:
    """The bit-time sweep."""

    points: List[CovertPoint] = field(default_factory=list)

    def at(self, bit_time: float) -> CovertPoint:
        """The point measured at a given bit time."""
        for p in self.points:
            if abs(p.bit_time - bit_time) < 1e-9:
                return p
        raise KeyError(f"no point at bit time {bit_time}")

    def formatted(self) -> List[str]:
        """Paper-style lines."""
        out = ["bit time   BER       TR"]
        for p in self.points:
            out.append(
                f"{p.bit_time*1e3:6.1f} ms  {p.ber*100:6.2f}%  "
                f"{p.transmission_rate:7.2f} b/s"
            )
        return out


def build_channel(
    seed: int = 7,
    config: Optional[CovertChannelConfig] = None,
    n_instances: int = 8000,
) -> CovertChannel:
    """The Fig. 7 testbed: sender in the lower half of the ZU3EG,
    LeakyDSP receiver in an upper region (a different tenant's area)."""
    setup = common.AXU3EGBSetup.create()
    virus = common.make_virus(setup, n_instances=n_instances)
    receiver_block = Pblock.from_region(
        setup.device.region_by_name("X0Y2"), name="pblock_receiver"
    )
    sensor = common.make_leakydsp(setup, receiver_block, seed=seed)
    return CovertChannel(sensor, setup.coupling, virus, config=config)


def run_fig7(
    bit_times: Sequence[float] = BIT_TIMES,
    payload_bits: int = 10_000,
    n_runs: int = 10,
    seed: int = 7,
    rng: RngLike = 41,
) -> Fig7Result:
    """Reproduce Fig. 7.

    Bit-level channel simulation is inherently sequential (the receiver
    thresholds a continuous readout stream), so the acquisition engine
    is not used here.
    """
    rng = make_rng(rng)
    channel = build_channel(seed=seed)
    result = Fig7Result()
    for bit_time in bit_times:
        outcomes = channel.sweep_bit_times(
            [bit_time], payload_bits=payload_bits, n_runs=n_runs, rng=rng
        )
        result.points.append(
            CovertPoint(
                bit_time=float(bit_time),
                ber=float(np.mean([o.ber for o in outcomes])),
                transmission_rate=float(
                    np.mean([o.transmission_rate for o in outcomes])
                ),
                n_runs=n_runs,
            )
        )
    return result


def render(result: Fig7Result) -> List[str]:
    """Paper-style report lines."""
    lines = ["(paper: <1% BER above 3.5 ms; at 4 ms BER 0.24%, TR 247.94 b/s)"]
    lines.extend(result.formatted())
    return lines


def _metrics(result: Fig7Result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for p in result.points:
        out[f"{p.bit_time*1e3:g}ms_ber"] = round(p.ber, 5)
        out[f"{p.bit_time*1e3:g}ms_rate_bps"] = round(p.transmission_rate, 2)
    return out


@registry.register(
    "fig7",
    title="Fig. 7 — covert channel: BER and TR vs. bit time",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(config: registry.ExperimentConfig, engine: Engine) -> Fig7Result:
    params = config.params(
        quick={
            "bit_times": (2e-3, 4e-3, 7.5e-3),
            "payload_bits": 3_000,
            "n_runs": 2,
        },
        paper={},
    )
    return run_fig7(rng=np.random.default_rng(config.seed), **params)


run = registry.protocol_entry("fig7")
