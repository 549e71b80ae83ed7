"""Placement-robustness study: move the sensor around the die.

Reproduces the Fig. 4 workload interactively: a fixed victim, a
LeakyDSP sensor Pblocked into each clock region, and the victim-induced
readout swing per region — illustrating both the PDN's spatial decay
and its per-region supply non-uniformity.

Run: ``python examples/placement_study.py``
"""

import numpy as np

from repro.experiments import common
from repro.runtime import Engine


def main() -> None:
    setup = common.Basys3Setup.create()
    virus = common.make_virus(setup)
    engine = Engine()
    print(f"victim: {virus.n_instances} power-virus instances, "
          f"{virus.n_groups} groups, bottom of the die\n")

    print("region  position        off     on      swing")
    for index, region_name in common.FIG4_REGIONS.items():
        pblock = common.region_pblock(setup.device, index)
        sensor = common.make_leakydsp(setup, pblock, seed=7 + index)
        [off] = engine.characterize_many(
            [sensor], setup.coupling, virus, 0, n_readouts=2000, seed=index
        )
        [on] = engine.characterize_many(
            [sensor], setup.coupling, virus, virus.n_groups, n_readouts=2000,
            seed=100 + index,
        )
        x, y = sensor.position
        print(f"  R{index}    ({x:5.1f},{y:6.1f})  {np.mean(off):5.1f}  "
              f"{np.mean(on):5.1f}   {np.mean(off) - np.mean(on):6.1f}")

    print("\nThe sensor senses the victim from every region; proximity and")
    print("the local supply strength set the gain (best: region 2).")


if __name__ == "__main__":
    main()
