"""Power delivery network (PDN) models.

The physical medium of every attack in the paper is the FPGA's shared
power delivery network: switching current drawn by one tenant's circuit
produces transient voltage droop visible to every other tenant.  This
package provides two models of that medium:

* :mod:`repro.pdn.mesh` — an RC-mesh reference solver (accurate, slow),
  used for validation and for calibrating the surrogate; import
  ``PDNMesh`` from there (it loads ``scipy.sparse``, which no campaign
  needs, so the package does not re-export it);
* :mod:`repro.pdn.coupling` — a fast spatial-coupling surrogate used for
  bulk trace generation (millions of sensor samples);
* :mod:`repro.pdn.noise` — measurement and supply noise models.
"""

from repro.pdn.coupling import CouplingModel, LoadSite, REGION_SUPPLY_FACTORS
from repro.pdn.noise import NoiseModel

__all__ = [
    "CouplingModel",
    "LoadSite",
    "REGION_SUPPLY_FACTORS",
    "NoiseModel",
]
