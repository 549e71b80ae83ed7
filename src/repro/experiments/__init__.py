"""One module per reproduced paper result.

================  =====================================================
Module            Paper result
================  =====================================================
fig3_sensitivity  Fig. 3 — readout vs. victim activity, LeakyDSP vs TDC
fig4_placement    Fig. 4 — sensitivity across six placement regions
table1_traces     Table I — traces to break AES-128 per placement
fig5_keyrank      Fig. 5 — key-rank curves for selected placements
fig6_frequency    Fig. 6 — key extraction vs. AES clock frequency
fig7_covert       Fig. 7 — covert-channel BER/TR vs. bit time
ablation_chain    (ablation) sensitivity vs. DSP chain length n
ablation_calib    (ablation) calibrated vs. uncalibrated sensing
defense_study     Section V — bitstream checks and active fences
pdn_validation    (ablation) PDN surrogate vs. RC-mesh reference
sensor_zoo        (extension) LeakyDSP/TDC/RDS/RO on one workload
================  =====================================================

Every module registers itself with :mod:`repro.experiments.registry`
and exposes the uniform entry point ``run(config: ExperimentConfig,
engine: Engine) -> ExperimentResult``; the underlying implementation
lives on as ``run_<name>``, whose acquisition always runs on an
:class:`~repro.runtime.Engine` (a serial one unless ``engine=`` is
given).  Benchmarks in ``benchmarks/`` call ``run_<name>`` with
scaled-down defaults; set ``REPRO_FULL=1`` to run paper-scale
workloads.
"""

from repro.experiments import common

__all__ = ["common", "registry"]
