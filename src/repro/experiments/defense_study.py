"""Section V — provider-side countermeasures.

Two studies:

1. **Bitstream scrutiny.**  Generate pseudo-bitstreams for a ring
   oscillator, a TDC and a LeakyDSP sensor; run today's checker rules
   (combinational loops + carry-sampler signatures) and the paper's
   proposed DSP rules.  Expected outcome: today's rules reject the RO
   and the TDC but accept LeakyDSP (the paper's evasion claim); the
   proposed DSP rules reject LeakyDSP too.

2. **Active fence.**  Surround the victim with a defender-controlled
   noise fence and measure how much voltage noise it adds at the
   attacker's sensor — i.e. by what factor the attacker's trace budget
   inflates (traces scale with the inverse square of the SNR
   amplitude).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.config import RngLike, make_rng
from repro.core import LeakyDSP
from repro.defense.checker import BitstreamChecker
from repro.defense.fence import ActiveFence
from repro.experiments import common, registry
from repro.fpga.bitstream import generate_bitstream
from repro.fpga.placement import Placer
from repro.pdn.noise import NoiseModel
from repro.runtime import Engine
from repro.sensors import RingOscillatorSensor, TDC


@dataclass
class CheckerOutcome:
    """Findings for one design under one rule set."""

    design: str
    dsp_rules: bool
    rules_fired: Tuple[str, ...]

    @property
    def accepted(self) -> bool:
        """Whether the design passes the check."""
        return not self.rules_fired


@dataclass
class FenceOutcome:
    """Noise impact of one fence size."""

    n_instances: int
    added_noise_rms: float
    baseline_noise_rms: float
    trace_inflation: float


@dataclass
class DefenseStudyResult:
    """Both studies' outcomes."""

    checker: List[CheckerOutcome] = field(default_factory=list)
    fence: List[FenceOutcome] = field(default_factory=list)

    def outcome(self, design: str, dsp_rules: bool) -> CheckerOutcome:
        """Look one checker outcome up."""
        for o in self.checker:
            if o.design == design and o.dsp_rules == dsp_rules:
                return o
        raise KeyError((design, dsp_rules))

    def formatted(self) -> List[str]:
        """Summary lines."""
        out = ["design     rules        verdict   (fired)"]
        for o in self.checker:
            ruleset = "dsp-aware" if o.dsp_rules else "today    "
            verdict = "ACCEPT" if o.accepted else "REJECT"
            out.append(
                f"{o.design:<9}  {ruleset}  {verdict}    {','.join(o.rules_fired) or '-'}"
            )
        out.append("fence size  added noise   trace inflation")
        for f in self.fence:
            out.append(
                f"{f.n_instances:9d}  {f.added_noise_rms*1e3:8.2f} mV   x{f.trace_inflation:.2f}"
            )
        return out


def _sensor_bitstreams(seed: int) -> Dict[str, object]:
    """Pseudo-bitstreams of the three sensor designs, each placed on a
    fresh board."""
    designs = {}
    for name, builder in (
        ("RO", lambda dev: RingOscillatorSensor(device=dev, name="ro")),
        ("TDC", lambda dev: TDC(device=dev, seed=seed, name="tdc")),
        ("LeakyDSP", lambda dev: LeakyDSP(device=dev, seed=seed, name="leakydsp")),
    ):
        setup = common.Basys3Setup.create()
        sensor = builder(setup.device)
        placement = sensor.place(Placer(setup.device))
        designs[name] = generate_bitstream(sensor.netlist(), placement)
    return designs


def run_defense_study(
    fence_sizes: Tuple[int, ...] = (500, 2000, 8000),
    seed: int = 7,
    rng: RngLike = 37,
) -> DefenseStudyResult:
    """Run both defense studies.

    Both studies are analytic (checker rules and the fence noise model)
    rather than trace campaigns, so the acquisition engine is unused.
    """
    rng = make_rng(rng)
    result = DefenseStudyResult()

    # -- study 1: bitstream scrutiny -----------------------------------
    bitstreams = _sensor_bitstreams(seed)
    for dsp_rules in (False, True):
        checker = BitstreamChecker(dsp_rules=dsp_rules)
        for design, bitstream in bitstreams.items():
            findings = checker.check(bitstream)
            result.checker.append(
                CheckerOutcome(
                    design=design,
                    dsp_rules=dsp_rules,
                    rules_fired=tuple(sorted({f.rule for f in findings})),
                )
            )

    # -- study 2: active fence ------------------------------------------
    setup = common.Basys3Setup.create()
    sensor = common.make_leakydsp(
        setup, common.placement_pblock(setup.device, "P6"), seed=seed
    )
    baseline = NoiseModel(white_rms=setup.constants.voltage_noise_rms, drift_rms=0.0)
    sensor_pos = sensor.require_position()
    for size in fence_sizes:
        fence = ActiveFence(
            setup.coupling,
            center=common.AES_POSITION,
            radius=8.0,
            n_instances=size,
            constants=setup.constants,
        )
        hardened = fence.harden(baseline, sensor_pos)
        # CPA trace counts scale with noise variance (inverse-square of
        # the SNR amplitude) for a fixed signal.
        inflation = (hardened.white_rms / baseline.white_rms) ** 2
        result.fence.append(
            FenceOutcome(
                n_instances=size,
                added_noise_rms=fence.noise_at(sensor_pos),
                baseline_noise_rms=baseline.white_rms,
                trace_inflation=float(inflation),
            )
        )
    return result


def render(result: DefenseStudyResult) -> List[str]:
    """Report lines."""
    lines = ["(paper: today's checks miss LeakyDSP; DSP rules would catch it)"]
    lines.extend(result.formatted())
    return lines


def _metrics(result: DefenseStudyResult) -> Dict[str, object]:
    out: Dict[str, object] = {
        "leakydsp_evades_today": result.outcome("LeakyDSP", False).accepted,
        "leakydsp_caught_by_dsp_rules": not result.outcome("LeakyDSP", True).accepted,
    }
    for f in result.fence:
        out[f"fence_{f.n_instances}_inflation"] = round(f.trace_inflation, 3)
    return out


@registry.register(
    "defense",
    title="Section V — defense study",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(
    config: registry.ExperimentConfig, engine: Engine
) -> DefenseStudyResult:
    params = config.params(quick={"fence_sizes": (500, 2000)}, paper={})
    return run_defense_study(rng=np.random.default_rng(config.seed), **params)


run = registry.protocol_entry("defense")
