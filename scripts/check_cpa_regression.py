"""Gate the batched CPA accumulate engine's speedups in CI.

Reads the ``BENCH_cpa.json`` written by
``benchmarks/bench_cpa_throughput.py`` (which itself asserts the
compared paths bit-identical before reporting) and fails unless

* the batched stacked-GEMM engine beats the per-byte reference engine
  by at least ``--min-speedup`` on best-round accumulate throughput,
  and
* folding one ciphertext batch into several sensors' attacks with
  ``CPAAttack.update_many`` beats the same sensors as separate attacks
  by at least ``--min-fanout-speedup``.

These are the regression gates for the accumulate hot path: a change
that quietly collapses it back to per-byte speed, or stops sharing the
hypotheses across sensors, turns this red instead of shipping.  Both
are single-process measurements, so they hold on any core count.

Exits non-zero on a missing/stale report or an insufficient speedup.
Used by CI's bench-quick job after the benchmark run::

    PYTHONPATH=src python scripts/check_cpa_regression.py \
        --min-speedup 2 --min-fanout-speedup 1.5
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_REPORT = Path(__file__).resolve().parents[1] / "BENCH_cpa.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report",
        type=Path,
        default=DEFAULT_REPORT,
        help="BENCH_cpa.json location (default: repository root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required batched/per-byte accumulate throughput ratio",
    )
    parser.add_argument(
        "--min-fanout-speedup",
        type=float,
        default=1.5,
        help="required fan-out/separate-attacks accumulate throughput ratio",
    )
    args = parser.parse_args(argv)

    if not args.report.is_file():
        print(f"FAIL: {args.report} not found; run the CPA benchmark first")
        return 1
    report = json.loads(args.report.read_text())
    try:
        batched = report["accumulate"]["best_traces_per_second"]
        per_byte = report["accumulate_per_byte"]["best_traces_per_second"]
        speedup = report["batched_speedup"]
        fanout = report["fanout_speedup"]
        n_sensors = report["accumulate_fanout"]["n_sensors"]
    except KeyError as exc:
        print(
            f"FAIL: {args.report} predates the split accumulate report "
            f"(missing {exc}); re-run the CPA benchmark"
        )
        return 1

    ok = True
    for label, value, required in (
        (
            f"batched {batched:,.0f} traces/s vs per-byte "
            f"{per_byte:,.0f} traces/s",
            speedup, args.min_speedup,
        ),
        (
            f"fan-out of {n_sensors} vs separate attacks",
            fanout, args.min_fanout_speedup,
        ),
    ):
        verdict = "ok" if value >= required else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{verdict}: {label} -> {value:.2f}x (required >= {required:.2f}x)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
