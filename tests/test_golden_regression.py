"""Golden-file regression tests: seeded end-to-end runs pinned to
committed JSON outputs.

These catch *silent numerical drift* — a refactor that keeps every unit
test green but shifts the statistics the figures are built from.  Each
test runs a scaled-down but fully end-to-end campaign with fixed seeds
and compares against ``tests/golden/<name>.json`` to 1e-9.

To regenerate after an intentional change::

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py --update-goldens

then review and commit the JSON diff.
"""

import json
import math
from pathlib import Path

import pytest

from repro.runtime import Engine
from repro.traces.blockstore import BlockStore

GOLDEN_DIR = Path(__file__).parent / "golden"

REL_TOL = 1e-9
ABS_TOL = 1e-9


def _diff(path, expected, actual, out):
    """Collect human-readable mismatches between two JSON-ish values."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(f"{path}.{key}: unexpected new key")
            elif key not in actual:
                out.append(f"{path}.{key}: missing from current output")
            else:
                _diff(f"{path}.{key}", expected[key], actual[key], out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(
                f"{path}: length {len(actual)} != golden {len(expected)}"
            )
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(f"{path}[{i}]", e, a, out)
    elif isinstance(expected, bool) or isinstance(actual, bool):
        if expected is not actual:
            out.append(f"{path}: {actual!r} != golden {expected!r}")
    elif isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if not math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(
                f"{path}: {actual!r} != golden {expected!r} "
                f"(|delta| = {abs(actual - expected):.3e})"
            )
    elif expected != actual:
        out.append(f"{path}: {actual!r} != golden {expected!r}")


def check_golden(name, payload, update):
    """Compare ``payload`` against ``tests/golden/<name>.json``."""
    path = GOLDEN_DIR / f"{name}.json"
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; generate it with "
            "pytest --update-goldens and commit it"
        )
    expected = json.loads(path.read_text())
    mismatches = []
    _diff(name, expected, payload, mismatches)
    if mismatches:
        shown = "\n  ".join(mismatches[:20])
        more = len(mismatches) - 20
        tail = f"\n  ... and {more} more" if more > 0 else ""
        pytest.fail(
            f"output drifted from golden {path.name} "
            f"({len(mismatches)} mismatches):\n  {shown}{tail}\n"
            "If the change is intentional, regenerate with "
            "pytest --update-goldens and commit the JSON diff."
        )


class TestFig3Golden:
    def test_sensitivity_statistics(self, update_goldens):
        from repro.experiments.fig3_sensitivity import run_fig3

        result = run_fig3(
            n_instances=2000,
            n_groups=8,
            n_readouts=250,
            seed=7,
            rng=17,
            engine=Engine(workers=1, shard_size=64),
        )
        payload = {
            sensor: {
                "levels": curve.levels,
                "mean_readouts": curve.mean_readouts,
                "pearson_r": curve.pearson_r,
                "regression_coefficient": curve.regression_coefficient,
            }
            for sensor, curve in result.curves.items()
        }
        check_golden("fig3_sensitivity", payload, update_goldens)


class TestFig5Golden:
    def test_streamed_key_rank_curve(self, update_goldens):
        from repro.experiments.table1_traces import streamed_placement_curve

        engine = Engine(workers=1, shard_size=1024)
        curve, attack = streamed_placement_curve(
            engine, "P6", 4000, 1000, "LeakyDSP", rng=3
        )
        payload = {
            "n_traces": attack.n_traces,
            "points": [
                {
                    "n_traces": p.n_traces,
                    "log2_lower": p.log2_lower,
                    "log2_upper": p.log2_upper,
                    "recovered": p.recovered,
                }
                for p in curve.points
            ],
        }
        check_golden("fig5_keyrank_stream", payload, update_goldens)


class _RecordingStore(BlockStore):
    """A block store that remembers every key it publishes, in order,
    split into trace blocks and attack-state snapshots."""

    def __init__(self, root):
        super().__init__(root)
        self.published = {"blocks": [], "attack_states": []}

    def put(self, key, arrays, meta=None):
        kind = "attack_states" if (meta or {}).get("kind") == "attack-state" else "blocks"
        self.published[kind].append(key)
        return super().put(key, arrays, meta=meta)


class TestEngineBlockKeysGolden:
    """Absolute cache keys of tiny single-sensor campaigns.  Keys are
    content addresses shared by every local cache and remote fleet: an
    engine change that moves one orphans all of them."""

    def test_block_and_attack_state_keys(self, tmp_path, update_goldens):
        from functools import partial

        from repro.attacks.cpa import CPAAttack
        from repro.experiments import common
        from repro.experiments.table1_traces import placement_acquisition

        def published(name, campaign):
            store = _RecordingStore(tmp_path / name)
            campaign(Engine(workers=1, shard_size=256, cache=store))
            return store.published

        acq = placement_acquisition("P6")
        key = bytes(range(16))
        collect = published(
            "collect", lambda e: e.collect(acq, 600, key=key, seed=3)
        )
        stream = published(
            "stream",
            lambda e: e.stream_attack(
                acq, 600, key=key, seed=3,
                consumer_factory=partial(CPAAttack, acq.default_n_samples()),
                checkpoints=[200, 512, 600],
            ),
        )
        setup = common.Basys3Setup.create()
        virus = common.make_virus(setup, n_instances=800, n_groups=8)
        sensor = common.make_leakydsp(
            setup, common.region_pblock(setup.device, 2), seed=9
        )
        characterize = published(
            "characterize",
            lambda e: e.characterize(sensor, setup.coupling, virus, 4, 600, seed=11),
        )
        payload = {
            "collect": collect["blocks"],
            "stream": stream,
            "characterize": characterize["blocks"],
        }
        check_golden("engine_block_keys", payload, update_goldens)


class TestCacheCountersGolden:
    """Every engine-side cache count of a tiny 2-sensor streamed
    fan-out on a local store, in four cache states at workers 1 and 2:
    ``cache_totals``, ``last_metrics.cache_summary()`` and the engine's
    registry series (read from a fresh registry, so zero-valued series
    the engine creates are pinned too).  On a local store every one of
    these counts is a function of the workload, the seed and the cache
    contents alone."""

    N_TRACES = 600
    SHARD = 256
    STATES = ("off", "cold", "warm", "partial")

    def _campaign(self, engine, specs):
        from functools import partial

        from repro.attacks.cpa import CPAAttack
        from repro.traces.acquisition import MultiSensorAcquisition

        multi = MultiSensorAcquisition(specs)
        engine.stream_attack_many(
            multi, self.N_TRACES, key=bytes(range(16)), seed=5,
            consumer_factory=partial(
                CPAAttack, specs[0].build().default_n_samples()
            ),
            checkpoints=[300, self.N_TRACES],
        )

    def _counts(self, state, workers, specs, root, monkeypatch):
        import repro.runtime.engine as engine_mod
        from repro.telemetry.metrics import MetricsRegistry

        store = None if state == "off" else str(root)
        if state == "warm":
            self._campaign(Engine(workers=1, shard_size=self.SHARD, cache=store), specs)
        elif state == "partial":
            self._campaign(
                Engine(workers=1, shard_size=self.SHARD, cache=store), specs[:1]
            )
        registry = MetricsRegistry(enabled=True)
        monkeypatch.setattr(engine_mod, "get_registry", lambda: registry)
        engine = Engine(workers=workers, shard_size=self.SHARD, cache=store)
        monkeypatch.undo()
        self._campaign(engine, specs)
        deterministic = registry.snapshot(deterministic_only=True)
        tier = {
            series: value
            for series, value in registry.snapshot()["counters"].items()
            if series.startswith("repro_cache_tier_total")
        }
        return {
            "cache_totals": dict(engine.cache_totals),
            "cache_summary": engine.last_metrics.cache_summary(),
            "registry": {
                "counters": deterministic["counters"],
                "histograms": deterministic["histograms"],
                "tier": tier,
            },
        }

    def test_cache_counters(self, tmp_path, monkeypatch, update_goldens):
        from repro.experiments import common

        specs = common.placement_specs(("P1", "P6"))
        payload = {
            state: {
                f"w{workers}": self._counts(
                    state, workers, specs,
                    tmp_path / f"{state}-w{workers}", monkeypatch,
                )
                for workers in (1, 2)
            }
            for state in self.STATES
        }
        check_golden("cache_counters", payload, update_goldens)
