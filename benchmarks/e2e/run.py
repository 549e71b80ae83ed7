"""Time-to-disclosure benchmark: paper-scale CPA campaigns, end to end.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload fanout-dense-cold --seed 1 \\
        --seconds 15 --trace 0

Each rep is one ``fig5`` campaign driven through the public experiment
API (``registry.run``) in a fresh child interpreter, one child at a
time.  Reps repeat until ``--seconds`` have passed (at least one runs);
the reported value of each metric is the median over reps.

``--trace 0`` reports the end-to-end metrics:

* ``campaign_s``   — ``registry.run`` call to return;
* ``disclosure_s`` — campaign start to the first key-rank checkpoint at
  or past the paper's traces-to-disclosure (25 k; see workloads.py);
* ``setup_s``      — child spawn to the experiment registry imported and
  populated, median over every child of the run (at least five);
* ``peak_rss_mb``  — peak RSS of the rep plus its largest pool worker.

``--trace 1`` runs the same timed reps, then one more rep with timing
wrappers at every layer boundary (spans.py), and reports its per-layer
metrics.  That rep also writes a run directory (manifest + ``run.jsonl``)
under ``.bench_build/e2e/runs/``, readable by ``repro report summary``.

Every rep hashes its rank points; a rep whose digest differs from the
run's first (or, at ``--seed 1``, from the pinned digest) counts as
failed.  A human-readable report goes to stderr; the last stdout line
is the JSON result.  ``--out FILE`` also writes every rep's values.

All files the benchmark writes live under ``.bench_build/e2e/`` in the
repository; rep children get it as ``TMPDIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans
from workloads import PAPER_DISCLOSURE_TRACES, PAPER_TABLE1, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_DIR = Path(".bench_build") / "e2e"

#: End-to-end metric -> unit (BENCHMARK.json lists the same names).
END_TO_END_UNITS = {
    "campaign_s": "s",
    "disclosure_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Whole-run budget: no child is started, or left running, past it.
DEADLINE_S = 170.0
MIN_SETUP_SAMPLES = 5
#: BLAS threads per rep: the 2-core machine the benchmark is sized on.
BLAS_THREADS = min(2, os.cpu_count() or 1)


class RepFailed(Exception):
    """A rep child raised, timed out or produced a wrong result."""


def child_env(root: Path, tmp: Path) -> Dict[str, str]:
    """Environment of every rep child: the repo's sources, no ``REPRO_*``
    overrides, a pinned BLAS thread count, temp files under ``tmp``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    env["TMPDIR"] = str(tmp)
    # The run manifest asks git for a commit; keep it inside the tree.
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Reps:
    """Runs rep children one at a time and keeps the run's books."""

    def __init__(self, root: Path, tmp: Path, deadline: float) -> None:
        self.root = root
        self.deadline = deadline
        self.env = child_env(root, tmp)
        self.attempted = 0
        self.failures: List[str] = []
        self.setup_s: List[float] = []

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, mode: str, **spec) -> dict:
        """One child; raises :class:`RepFailed` on any failure."""
        spec = {"mode": mode, "spawned": time.time(), **spec}
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(self.time_left(), 1.0))
        except BaseException as exc:
            # The child leads its own process group: this also stops
            # any pool workers it forked.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RepFailed(f"{mode} rep timed out") from None
            raise
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no stderr"]
            raise RepFailed(f"{mode} rep exited {proc.returncode}: {tail[0]}")
        result = json.loads(out.strip().splitlines()[-1])
        if mode != "prepare":
            self.setup_s.append(result["setup_s"])
        return result

    def attempt(self, mode: str, **spec) -> Optional[dict]:
        """One counted operation; failures are recorded, not raised."""
        self.attempted += 1
        try:
            return self.run(mode, **spec)
        except RepFailed as exc:
            self.failures.append(str(exc))
            return None


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns every rep's values and the books."""
    work_root = ROOT / WORK_DIR
    work = work_root / f"{workload.name}-{os.getpid()}"
    tmp = work_root / "tmp"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tmp.mkdir(exist_ok=True)
    reps = Reps(ROOT, tmp, time.monotonic() + DEADLINE_S)
    try:
        reps.run("prepare")
        return _measure(workload, seed, seconds, trace, reps, work, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, reps, work, work_root) -> dict:
    base = dict(
        seed=seed,
        options=workload.options,
        workers=workload.workers,
        disclosure_traces=PAPER_DISCLOSURE_TRACES,
    )
    expected = workload.seed1_digest if seed == 1 else None

    def campaign(cache_dir: Optional[Path] = None, **extra) -> Optional[dict]:
        nonlocal expected
        t0 = time.monotonic()
        result = reps.attempt(
            "campaign", cache_dir=str(cache_dir) if cache_dir else None, **base, **extra
        )
        if workload.cache == "cold" and cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if result is None:
            return None
        result["wall_s"] = time.monotonic() - t0
        expected = expected or result["digest"]
        if result["digest"] != expected:
            reps.failures.append(f"digest {result['digest'][:16]} != {expected[:16]}")
            return None
        return result

    cache_dir = None
    if workload.cache == "warm":
        cache_dir = work / "cache"
        campaign(cache_dir)  # the untimed fill pass

    timed: List[dict] = []
    start = time.monotonic()
    n_timed = 0
    rep_s = 0.0
    while n_timed == 0 or (
        time.monotonic() - start < seconds and reps.time_left() > 2 * rep_s
    ):
        n_timed += 1
        if workload.cache == "cold":
            cache_dir = work / f"cache-{n_timed}"
        result = campaign(cache_dir)
        if result is not None:
            timed.append(result)
            rep_s = max(rep_s, result["wall_s"])
    if not timed:
        raise RepFailed("; ".join(reps.failures) or "no rep completed")

    outcome = {
        "workload": workload.name,
        "seed": seed,
        "digest": expected,
        "pinned": seed == 1 and expected == workload.seed1_digest,
        "reps": timed,
    }
    if trace:
        if workload.cache == "cold":
            cache_dir = work / "cache-traced"
        run_dir = work_root / "runs" / f"{workload.name}-seed{seed}"
        (work / "spans").mkdir()
        traced = campaign(cache_dir, trace_dir=str(work / "spans"), run_dir=str(run_dir))
        if traced is None:
            raise RepFailed("; ".join(reps.failures))
        untraced = statistics.median(r["campaign_s"] for r in timed)
        t = traced["trace"]
        outcome["per_layer"] = spans.layer_metrics(
            t["parent"], t["workers"], t["waits"], t["cache"], traced["campaign_s"], untraced
        )
        outcome["parent_self_s"] = spans.parent_self_seconds(t["parent"])
        outcome["traced_campaign_s"] = traced["campaign_s"]
        outcome["run_dir"] = str(run_dir)
    else:
        while len(reps.setup_s) < MIN_SETUP_SAMPLES and reps.time_left() > 10:
            reps.attempt("setup")
    samples = {name: [r[name] for r in timed] for name in END_TO_END_UNITS if name != "setup_s"}
    samples["setup_s"] = list(reps.setup_s)
    outcome["end_to_end"] = {name: quartiles(values) for name, values in samples.items()}
    outcome["samples"] = samples
    outcome["attempted"] = reps.attempted
    outcome["failures"] = reps.failures
    return outcome


def result_line(outcome: dict, trace: bool) -> dict:
    """The JSON result printed as the last stdout line."""
    if trace:
        metrics = {
            name: {"value": outcome["per_layer"][name], "unit": unit}
            for name, unit in spans.LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": outcome["end_to_end"][name]["median"], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": metrics,
    }


def report(outcome: dict) -> List[str]:
    """Human-readable summary of one run."""
    digest = outcome["digest"]
    pin = " (matches the pinned seed-1 digest)" if outcome["pinned"] else ""
    lines = [
        f"{outcome['workload']} seed={outcome['seed']}: {len(outcome['reps'])} "
        f"timed reps, digest {digest[:16]}{pin}",
    ]
    for name, q in outcome["end_to_end"].items():
        unit = END_TO_END_UNITS[name]
        lines.append(
            f"  {name:<13} median {q['median']:.4f} {unit}  "
            f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n={q['n']}"
        )
    first = outcome["reps"][0]
    counts = " ".join(
        f"{p}={n if n is not None else 'none'}"
        for p, n in sorted(first["traces_to_disclosure"].items())
    )
    lines.append(
        f"  paper accuracy (count, not gated): simulated traces to "
        f"disclosure {counts}; paper Table I: {PAPER_TABLE1}"
    )
    if first["first_disclosure_s"] is not None:
        lines.append(f"  first disclosure at {first['first_disclosure_s']:.3f} s (first rep)")
    for name, value in outcome.get("per_layer", {}).items():
        lines.append(f"  {name:<26} {value:.6g} {spans.LAYER_UNITS[name]}")
    if "run_dir" in outcome:
        lines.append(f"  traced run: python -m repro.cli report summary {outcome['run_dir']}")
    for failure in outcome["failures"]:
        lines.append(f"  FAILED: {failure}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write every rep's values here")
    args = parser.parse_args(argv)
    # Turn a polite kill into an exception, so the running rep's process
    # group is stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(outcome)), file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(outcome, indent=1) + "\n")
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
