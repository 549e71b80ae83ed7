"""Quickstart: build, place, calibrate and read a LeakyDSP sensor.

Walks the public API end to end on the Basys3 (XC7A35T) device model:

1. instantiate the malicious DSP-chain sensor and verify its DSP
   configuration really computes the identity function,
2. place it into a clock-region Pblock next to a power-virus victim,
3. run the IDELAY tap-sweep calibration,
4. watch the readout track supply-voltage droop caused by the victim.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro import LeakyDSP, calibrate
from repro.fpga import Pblock, Placer, xc7a35t
from repro.pdn import CouplingModel
from repro.runtime import Engine
from repro.victims import PowerVirusBank


def main() -> None:
    # 1. The device and its shared power delivery network.
    device = xc7a35t()
    coupling = CouplingModel(device)
    placer = Placer(device)
    print(f"device: {device.name}, {device.num_dsps} DSP blocks, "
          f"{device.num_luts} LUTs")

    # 2. A victim: 8,000 RO power-virus instances in 8 enable groups,
    #    constrained to the bottom of the die.
    virus = PowerVirusBank(device, n_instances=8000, n_groups=8)
    half, height = device.width // 2, int(device.height * 0.4)
    virus.place(placer, [
        Pblock("victim_left", 0, 0, half - 1, height - 1),
        Pblock("victim_right", half, 0, device.width - 1, height - 1),
    ])

    # 3. The attacker: a 3-block LeakyDSP sensor in its own region.
    sensor = LeakyDSP(device=device, n_blocks=3, seed=7)
    print(f"malicious DSP function computes identity: "
          f"{sensor.functional_check()}")
    region = device.region_by_name("X1Y0")
    sensor.place(placer, pblock=Pblock.from_region(region))
    print(f"sensor placed at {sensor.position} "
          f"(chain delay {sensor.chain_delay * 1e9:.1f} ns)")

    # 4. Post-placement IDELAY calibration.
    cal = calibrate(sensor, rng=0)
    print(f"calibrated taps {cal.taps}, "
          f"sensitivity {cal.sensitivity:.0f} readout-bits/V")

    # 5. Sense the victim: readouts drop as more virus groups activate.
    print("\nactive groups -> mean readout (2,000 samples each):")
    engine = Engine()
    for groups in range(0, 9, 2):
        [readouts] = engine.characterize_many(
            [sensor], coupling, virus, groups, n_readouts=2000, seed=groups
        )
        bar = "#" * int(np.mean(readouts))
        print(f"  {groups} groups: {np.mean(readouts):5.1f}  {bar}")


if __name__ == "__main__":
    main()
