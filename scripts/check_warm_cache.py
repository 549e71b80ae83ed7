"""Validate the trace block cache on one small experiment (default fig5).

Runs the same experiment twice against one cache directory — a cold
pass (all misses, blocks published) and a warm pass (served entirely
from the store) — then asserts:

* the warm pass has a 100% hit rate — or, for an experiment whose
  cold pass makes no cache lookups at all (it acquires no traces), that
  the warm pass makes none either,
* every experiment metric (key ranks, correlations) is identical
  across the two passes — checked both in memory and through the
  telemetry run logs' result digests (``repro.telemetry``),
* the store verifies clean (no torn or corrupt blocks).

Exits non-zero on any violation.  Used by CI's warm-cache job::

    PYTHONPATH=src python scripts/check_warm_cache.py
    PYTHONPATH=src python scripts/check_warm_cache.py --experiment fig5 \
        --min-speedup 5
"""

import argparse
import os
import sys
import tempfile
import time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiment",
        default="fig5",
        help="registered experiment to run twice (default: fig5)",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="workload scale (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="acquisition worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "fail unless warm is at least this many times faster than "
            "cold (default: report only)"
        ),
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help=(
            "keep the cold/warm telemetry run records under this "
            "directory (default: a temporary directory, discarded)"
        ),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from repro.experiments import registry
    from repro.runtime.metrics import hit_rate
    from repro.telemetry import read_run
    from repro.traces.blockstore import BlockStore

    with tempfile.TemporaryDirectory(prefix="repro-cache-") as tmp:
        cache_dir = args.cache_dir or os.path.join(tmp, "cache")
        run_root = args.run_dir or os.path.join(tmp, "runs")

        def run_pass(label):
            config = registry.ExperimentConfig(
                scale=args.scale,
                seed=args.seed,
                workers=args.workers,
                cache_dir=cache_dir,
                run_dir=os.path.join(run_root, label),
            )
            t0 = time.perf_counter()
            result = registry.run(args.experiment, config)
            return result, time.perf_counter() - t0

        cold, cold_seconds = run_pass("cold")
        warm, warm_seconds = run_pass("warm")

        failures = []
        lookups = {}
        for label, result in (("cold", cold), ("warm", warm)):
            cache = result.metadata["cache"]
            lookups[label] = hit_rate(cache).lookups
            counts = (
                f"hits={cache['hits']} misses={cache['misses']} "
                f"hit_rate={cache['hit_rate']:.2%}"
                if lookups[label]
                else "no cache lookups"
            )
            print(f"{label}: {result.seconds:.2f}s {counts}")
        cold_cache = cold.metadata["cache"]
        warm_cache = warm.metadata["cache"]
        if cold_cache["hits"] != 0:
            failures.append(
                f"cold pass expected 0 hits, saw {cold_cache['hits']} "
                "(stale cache directory?)"
            )
        if not lookups["cold"]:
            # Nothing acquired, so nothing to serve: a warm pass must not
            # start looking blocks up either.
            if lookups["warm"]:
                failures.append(
                    f"cold pass made no cache lookups, warm pass made "
                    f"{lookups['warm']}"
                )
        elif warm_cache["hit_rate"] != 1.0:
            failures.append(
                f"warm pass hit rate {warm_cache['hit_rate']:.2%}, "
                "expected 100%"
            )
        if warm_cache["misses"] != 0:
            failures.append(
                f"warm pass re-acquired {warm_cache['misses']} blocks"
            )
        if cold.metrics != warm.metrics:
            failures.append(
                f"metrics differ across passes: cold={cold.metrics} "
                f"warm={warm.metrics}"
            )
        else:
            print(f"metrics identical across passes: {warm.metrics}")

        # Cross-check through the durable record: the run logs' result
        # digests must agree too (what 'repro report diff' enforces).
        digests = {
            label: read_run(os.path.join(run_root, label))
            .one("metrics")["result_digest"]
            for label in ("cold", "warm")
        }
        if digests["cold"] != digests["warm"]:
            failures.append(
                f"run-log result digests differ: {digests}"
            )
        else:
            print(f"run-log result digest: {digests['warm'][:16]}…")

        report = BlockStore(cache_dir).verify()
        if not report.ok:
            failures.append(f"store verify found {len(report.bad)} bad blocks")
        else:
            print(f"store verified clean: {report.n_ok} blocks")

        speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
        print(f"speedup: {speedup:.1f}x (cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s)")
        if args.min_speedup is not None and speedup < args.min_speedup:
            failures.append(
                f"warm speedup {speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x"
            )

        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
