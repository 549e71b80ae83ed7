"""Table I — traces required to break the full AES-128 key.

For each of the eight sensor placements P1..P8 (and once for the TDC
baseline), collect traces of the AES core at 20 MHz, run the
incremental CPA, and report the first trace count at which the full key
is recovered (key-rank upper bound collapsed and all sixteen best
guesses correct).

Paper values: LeakyDSP 25k-58k depending on placement; TDC 51k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.metrics import RankCurve, rank_curve
from repro.config import RngLike, make_rng
from repro.experiments import common, registry
from repro.runtime import Engine
from repro.runtime.sharding import root_sequence
from repro.timing.sampling import ClockSpec
from repro.traces.acquisition import AESTraceAcquisition
from repro.traces.store import TraceSet

#: Default ground-truth key for the campaigns (any key works; CPA does
#: not exploit its structure).
DEFAULT_KEY = bytes(range(16))


def placement_acquisition(
    placement: str,
    sensor_type: str = "LeakyDSP",
    aes_clock: ClockSpec = common.AES_CLOCK,
    seed: int = 7,
) -> AESTraceAcquisition:
    """Build the acquisition harness for a sensor at one named
    placement (fresh board per campaign, like reflashing the FPGA).

    Thin wrapper over :func:`repro.experiments.common.placement_spec` —
    the spec is the normalized construction path."""
    return common.placement_spec(placement, sensor_type, aes_clock, seed).build()


def collect_placement_traces(
    placement: str,
    n_traces: int,
    sensor_type: str = "LeakyDSP",
    aes_clock: ClockSpec = common.AES_CLOCK,
    key: bytes = DEFAULT_KEY,
    seed: int = 7,
    rng: RngLike = 3,
    engine: Optional[Engine] = None,
) -> TraceSet:
    """Collect an AES trace campaign with a sensor at one named
    placement.

    With an ``engine``, collection runs on the sharded acquisition
    runtime (``rng`` must then be an integer seed or a
    :class:`numpy.random.SeedSequence`).
    """
    acq = placement_acquisition(placement, sensor_type, aes_clock, seed)
    if engine is None:
        trace_set = acq.collect(n_traces, key=key, rng=rng)
    else:
        trace_set = engine.collect(acq, n_traces, key=key, seed=rng)
    trace_set.metadata["placement"] = placement
    return trace_set


def streamed_placement_curve(
    engine: Engine,
    placement: str,
    n_traces: int,
    step: int,
    sensor_type: str = "LeakyDSP",
    aes_clock: ClockSpec = common.AES_CLOCK,
    key: bytes = DEFAULT_KEY,
    seed: int = 7,
    rng: RngLike = 3,
    chunk_size: Optional[int] = None,
    on_point=None,
    attack=None,
    trace_offset: int = 0,
):
    """Streamed equivalent of :func:`collect_placement_traces` +
    :func:`disclosure_curve`: same campaign (same shard plan and random
    streams, so bit-identical ranks), but the traces flow straight into
    the CPA accumulator and the rank curve grows incrementally — the
    full trace matrix never exists.

    Returns ``(RankCurve, CPAAttack)``; pass the attack back (with
    ``trace_offset``) to extend the campaign, Fig. 6 style.
    """
    from repro.attacks.metrics import streamed_rank_curve

    acq = placement_acquisition(placement, sensor_type, aes_clock, seed)
    hw = common.make_hw_model(aes_clock)
    window = common.last_round_window(hw, acq.default_n_samples())
    total = trace_offset + n_traces
    checkpoints = [
        cp for cp in range(step, total + 1, step) if cp > trace_offset
    ]
    return streamed_rank_curve(
        engine,
        acq,
        n_traces,
        key=key,
        checkpoints=checkpoints,
        seed=rng,
        sample_window=window,
        chunk_size=chunk_size,
        on_point=on_point,
        attack=attack,
        trace_offset=trace_offset,
    )


def streamed_placement_curves(
    engine: Engine,
    placements: Sequence[str],
    n_traces: int,
    step: int,
    sensor_type: str = "LeakyDSP",
    aes_clock: ClockSpec = common.AES_CLOCK,
    key: bytes = DEFAULT_KEY,
    seed: int = 7,
    rng: RngLike = 3,
    chunk_size: Optional[int] = None,
    on_point=None,
):
    """Fan-out equivalent of one :func:`streamed_placement_curve` per
    placement: every placement's sensor observes the *same* victim
    campaign, so the AES+PDN work is paid once per shard instead of
    once per placement.

    Each returned ``(RankCurve, CPAAttack)`` pair is bit-identical to
    :func:`streamed_placement_curve` over that placement alone with the
    same ``rng`` — the :meth:`~repro.kernels.AcquisitionKernel.
    acquire_many` contract.  ``on_point(placement_index, point)`` feeds
    incremental rank progress per placement.
    """
    from repro.attacks.metrics import streamed_rank_curves
    from repro.traces.acquisition import MultiSensorAcquisition

    acqs = MultiSensorAcquisition(
        common.placement_specs(placements, sensor_type, aes_clock, seed)
    )
    hw = common.make_hw_model(aes_clock)
    window = common.last_round_window(hw, acqs.default_n_samples())
    checkpoints = list(range(step, n_traces + 1, step))
    return streamed_rank_curves(
        engine,
        acqs,
        n_traces,
        key=key,
        checkpoints=checkpoints,
        seed=rng,
        sample_window=window,
        chunk_size=chunk_size,
        on_point=on_point,
    )


def disclosure_curve(
    trace_set: TraceSet,
    step: int,
    aes_clock: ClockSpec = common.AES_CLOCK,
) -> RankCurve:
    """Rank curve on a uniform checkpoint grid over a campaign."""
    hw = common.make_hw_model(aes_clock)
    window = common.last_round_window(hw, trace_set.n_samples)
    checkpoints = list(range(step, len(trace_set) + 1, step))
    return rank_curve(trace_set, checkpoints, sample_window=window)


@dataclass
class Table1Row:
    """One placement's outcome."""

    placement: str
    sensor: str
    traces_to_break: Optional[int]
    n_collected: int


@dataclass
class Table1Result:
    """The full table."""

    rows: List[Table1Row] = field(default_factory=list)

    def leakydsp_band(self) -> Optional[tuple]:
        """(min, max) traces over the LeakyDSP placements that broke."""
        broke = [
            r.traces_to_break
            for r in self.rows
            if r.sensor == "LeakyDSP" and r.traces_to_break is not None
        ]
        if not broke:
            return None
        return (min(broke), max(broke))

    def formatted(self) -> List[str]:
        """Paper-style table lines."""
        out = ["placement  sensor     traces-to-break"]
        for r in self.rows:
            broke = f"{r.traces_to_break}" if r.traces_to_break else f">{r.n_collected}"
            out.append(f"{r.placement:>9}  {r.sensor:<9}  {broke}")
        return out


def run_table1(
    placements: Sequence[str] = tuple(common.CPA_PLACEMENTS),
    n_traces: int = 60_000,
    step: int = 2_500,
    include_tdc: bool = True,
    tdc_placement: str = "P6",
    seed: int = 7,
    rng: RngLike = 3,
    engine: Optional[Engine] = None,
) -> Table1Result:
    """Reproduce Table I.

    Each placement is a fresh board and sensor, same key.  The TDC
    baseline runs once, at ``tdc_placement`` — the paper evaluates the
    TDC "in one setting" only, since TDC and LeakyDSP cannot occupy the
    same sites for a like-for-like spot.

    On the serial path (``engine=None``) every placement is an
    independent campaign drawn from one generator.  With an ``engine``,
    all LeakyDSP placements ride a *single* fan-out campaign
    (:func:`streamed_placement_curves`, RNG child 0 — so a
    single-placement table keeps its historical seeds) and the TDC
    baseline streams separately (child 1).
    """
    result = Table1Result()
    if engine is None:
        gen = make_rng(rng)
        campaign_rngs = iter(lambda: gen, None)
        for placement in placements:
            ts = collect_placement_traces(
                placement,
                n_traces,
                "LeakyDSP",
                seed=seed,
                rng=next(campaign_rngs),
                engine=engine,
            )
            curve = disclosure_curve(ts, step)
            result.rows.append(
                Table1Row(placement, "LeakyDSP", curve.traces_to_disclosure, n_traces)
            )
        if include_tdc:
            ts = collect_placement_traces(
                tdc_placement,
                n_traces + 20_000,
                "TDC",
                seed=seed,
                rng=next(campaign_rngs),
                engine=engine,
            )
            curve = disclosure_curve(ts, step)
            result.rows.append(
                Table1Row(
                    tdc_placement, "TDC", curve.traces_to_disclosure,
                    n_traces + 20_000,
                )
            )
        return result

    seeds = root_sequence(rng).spawn(2)
    pairs = streamed_placement_curves(
        engine, placements, n_traces, step, "LeakyDSP",
        seed=seed, rng=seeds[0],
    )
    for placement, (curve, _attack) in zip(placements, pairs):
        result.rows.append(
            Table1Row(placement, "LeakyDSP", curve.traces_to_disclosure, n_traces)
        )
    if include_tdc:
        curve, _attack = streamed_placement_curve(
            engine, tdc_placement, n_traces + 20_000, step, "TDC",
            seed=seed, rng=seeds[1],
        )
        result.rows.append(
            Table1Row(
                tdc_placement, "TDC", curve.traces_to_disclosure, n_traces + 20_000
            )
        )
    return result


def render(result: Table1Result) -> List[str]:
    """Paper-style report lines."""
    lines = ["(paper: LeakyDSP 25k-58k across placements; TDC 51k)"]
    lines.extend(result.formatted())
    band = result.leakydsp_band()
    if band:
        lines.append(f"LeakyDSP band: {band[0]}-{band[1]} traces")
    return lines


def _metrics(result: Table1Result) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for row in result.rows:
        out[f"{row.sensor}_{row.placement}_traces"] = row.traces_to_break
    band = result.leakydsp_band()
    if band:
        out["leakydsp_band_min"], out["leakydsp_band_max"] = band
    return out


@registry.register(
    "table1",
    title="Table I — traces required to break the full AES-128 key",
    renderer=render,
    metrics=_metrics,
)
def _run_protocol(config: registry.ExperimentConfig, engine: Engine) -> Table1Result:
    params = config.params(
        quick={
            "placements": ("P6",),
            "n_traces": 30_000,
            "step": 5_000,
            "include_tdc": False,
        },
        paper={},
    )
    return run_table1(rng=np.random.SeedSequence(config.seed), engine=engine, **params)


run = registry.protocol_entry("table1")


def main() -> None:
    """Print the Table I reproduction."""
    result = run_table1()
    print("Table I — traces required to break the full AES-128 key")
    for line in render(result):
        print(line)


if __name__ == "__main__":
    main()
