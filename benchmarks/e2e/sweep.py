"""Steadiness check: run every workload over many seeds and compare.

Run from the repository root::

    python3 benchmarks/e2e/sweep.py --out benchmarks/e2e/baseline.json

Each of two rounds runs ``run.py`` once per (seed, workload) for seeds
1-10, seeds outermost, with ``run_seconds`` from BENCHMARK.json.  Per
workload and end-to-end metric it reports the median over seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
metric is steady when its spread stays within its bound; between
rounds, the later round's median must not be worse than the first's by
more than the bound.  It also checks that the cold, warm and pool2
campaigns agree on one digest at every seed, and adds one traced run
per workload at seed 1.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, ROOT, quartiles
from workloads import SAME_CAMPAIGN

SEEDS = range(1, 11)
ROUNDS = 2
TRACE_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` invocation; returns its detail record."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        out = Path(tmp) / "detail.json"
        proc = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py",
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
        detail = json.loads(out.read_text())
    detail["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return detail


def _round(bench: dict, workloads) -> dict:
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            detail = _run(workload, seed, bench["run_seconds"], 0)
            runs[workload].append(detail)
            print(
                f"  {workload} seed {seed}: "
                + " ".join(
                    f"{m}={v['value']:.4g}"
                    for m, v in detail["result"]["metrics"].items()
                ),
                file=sys.stderr,
            )
    summary = {}
    for workload, details in runs.items():
        metrics = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [d["result"]["metrics"][name]["value"] for d in details]
            q = quartiles(values)
            metrics[name] = {
                "values": values,
                **q,
                "spread": (q["q3"] - q["q1"]) / q["median"],
                "bound": metric["bound"],
            }
        summary[workload] = {
            "seeds": list(SEEDS),
            "failed": sum(d["result"]["failed"] for d in details),
            "attempted": sum(d["result"]["attempted"] for d in details),
            "digests": [d["digest"] for d in details],
            "metrics": metrics,
        }
    return summary


def _checks(rounds) -> list:
    problems = []
    for r, summary in enumerate(rounds):
        for workload, s in summary.items():
            if s["failed"]:
                problems.append(f"round {r}: {workload}: {s['failed']} failed reps")
            for name, m in s["metrics"].items():
                if m["spread"] > m["bound"]:
                    problems.append(
                        f"round {r}: {workload}: {name} spread {m['spread']:.3f} "
                        f"> bound {m['bound']}"
                    )
        for i, digests in enumerate(zip(*(summary[w]["digests"] for w in SAME_CAMPAIGN))):
            if len(set(digests)) > 1:
                problems.append(f"round {r}: seed {SEEDS[i]}: {SAME_CAMPAIGN} digests differ")
    for r, later in enumerate(rounds[1:], start=1):
        for workload, s in later.items():
            for name, m in s["metrics"].items():
                first = rounds[0][workload]["metrics"][name]["median"]
                if m["median"] > first * (1 + m["bound"]):
                    problems.append(
                        f"round {r}: {workload}: {name} median {m['median']:.4g} "
                        f"worse than round 0's {first:.4g} by more than {m['bound']}"
                    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    rounds = []
    for r in range(ROUNDS):
        print(f"round {r}", file=sys.stderr)
        rounds.append(_round(bench, workloads))
    traced = {}
    for workload in workloads:
        detail = _run(workload, TRACE_SEED, bench["run_seconds"], 1)
        traced[workload] = {"seed": TRACE_SEED, "per_layer": detail["per_layer"]}
    problems = _checks(rounds)
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": bench["run_seconds"],
        "rounds": rounds,
        "traced": traced,
        "problems": problems,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    for r, summary in enumerate(rounds):
        for workload, s in summary.items():
            for name, m in s["metrics"].items():
                print(
                    f"round {r} {workload:<19} {name:<13} median {m['median']:.4f} "
                    f"spread {m['spread']:.3f} (bound {m['bound']})",
                    file=sys.stderr,
                )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
