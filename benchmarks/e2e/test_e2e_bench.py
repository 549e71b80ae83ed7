"""Self-test of the end-to-end benchmark harness on reduced campaigns.

Run from the repository root (about half a minute)::

    python3 -m pytest benchmarks/e2e/test_e2e_bench.py -q

Every workload runs once traced with two placements (or one, solo) and
8192 traces in 4096-trace shards, so each layer still shows up.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import SAME_CAMPAIGN, WORKLOADS  # noqa: E402

N_TRACES = 8192
SMALL = {
    "fanout": {"placements": ["P4", "P6"], "n_traces": N_TRACES, "step": 4096},
    "solo": {"placements": ["P4"], "n_traces": N_TRACES, "step": 4096},
}
SERIAL = ("fanout-dense-cold", "fanout-dense-warm", "solo-sparse-cold")
#: Per-layer seconds spent in the rep process on a serial campaign.
PARENT_SECONDS = (
    "aes.self_s", "kernels.self_s", "kernels.sensor_s", "cache.get_s",
    "cache.put_s", "accumulate.self_s", "merge.self_s", "correlations.self_s",
    "keyrank.self_s", "engine.self_s", "engine.wait_s",
    "experiments.spec_build_s", "unattributed_s",
)


def _small(name: str) -> run.Workload:
    kind = "solo" if name.startswith("solo") else "fanout"
    return dataclasses.replace(WORKLOADS[name], options=SMALL[kind])


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_workload(_small(name), 3, 0, trace=True) for name in WORKLOADS}


@pytest.fixture(scope="module")
def bench():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_harness(bench):
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_untraced_result_line_has_every_end_to_end_metric(bench):
    outcome = run.run_workload(_small("solo-sparse-cold"), 3, 0, trace=False)
    line = run.result_line(outcome, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in bench["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert outcome["end_to_end"]["setup_s"]["n"] >= run.MIN_SETUP_SAMPLES


def test_traced_result_line_has_every_layer_metric(traced, bench):
    for outcome in traced.values():
        line = run.result_line(outcome, trace=True)
        assert line["correct"] and line["failed"] == 0
        for metric in bench["per_layer"]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_cold_warm_and_pool2_share_one_digest(traced):
    assert len({traced[name]["digest"] for name in SAME_CAMPAIGN}) == 1


def test_layer_seconds_add_up_to_the_traced_campaign(traced):
    # Exact up to rounding when every recorded layer lands in exactly
    # one reported metric; a positive residual means spans never nest
    # past the campaign's own wall time.
    for name in SERIAL:
        layers = traced[name]["per_layer"]
        total = sum(layers[metric] for metric in PARENT_SECONDS)
        campaign = traced[name]["traced_campaign_s"]
        assert total == pytest.approx(campaign, rel=1e-9)
        assert 0 < layers["unattributed_s"] < 0.05 * campaign
    pool = traced["fanout-dense-pool2"]
    parent = sum(pool["parent_self_s"].values()) + pool["per_layer"]["unattributed_s"]
    assert parent == pytest.approx(pool["traced_campaign_s"], rel=1e-9)
    assert 0 < pool["per_layer"]["unattributed_s"] < 0.05 * pool["traced_campaign_s"]


def test_every_wrapper_sees_its_calls(traced):
    for name, outcome in traced.items():
        layers = outcome["per_layer"]
        n_sensors = len(_small(name).options["placements"])
        assert layers["accumulate.traces"] == n_sensors * N_TRACES, name
        assert layers["keyrank.calls"] == 2 * n_sensors, name
        assert layers["correlations.calls"] >= layers["keyrank.calls"], name
        assert layers["engine.shards"] == 2, name
        assert layers["experiments.spec_build_s"] > 0, name
        acquired = name != "fanout-dense-warm"
        assert layers["aes.traces"] == (N_TRACES if acquired else 0), name
        assert layers["kernels.sensor_traces"] == (n_sensors * N_TRACES if acquired else 0)
    for name in SERIAL:
        assert traced[name]["per_layer"]["engine.wait_s"] == 0
    pool = traced["fanout-dense-pool2"]["per_layer"]
    assert pool["engine.wait_s"] > 0 and pool["merge.calls"] > 0
    cold = traced["fanout-dense-cold"]["per_layer"]
    assert cold["cache.misses"] > 0 and cold["cache.write_mb"] > 0 and cold["cache.hits"] == 0
    warm = traced["fanout-dense-warm"]["per_layer"]
    assert warm["cache.hit_ratio"] == 1 and warm["cache.read_mb"] > 0
    assert warm["cache.put_s"] == 0 and warm["cache.write_mb"] == 0
    for name in ("solo-sparse-cold", "fanout-dense-pool2"):
        layers = traced[name]["per_layer"]
        assert layers["cache.put_s"] == 0 and layers["cache.get_s"] == 0, name


def test_traced_run_directory_is_a_repro_run_log(traced):
    summary = subprocess.run(
        [sys.executable, "-m", "repro.cli", "report", "summary",
         traced["fanout-dense-cold"]["run_dir"]],
        cwd=run.ROOT, env=run.child_env(run.ROOT, run.ROOT / run.WORK_DIR / "tmp"),
        capture_output=True, text=True, timeout=120,
    )
    assert summary.returncode == 0, summary.stderr
    assert "fig5" in summary.stdout


def test_fails_without_the_sources(tmp_path, bench):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "solo-sparse-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
