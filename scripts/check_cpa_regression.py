"""Gate the CPA accumulate and key-rank speedups in CI.

Reads the ``BENCH_cpa.json`` written by
``benchmarks/bench_cpa_throughput.py`` (which itself asserts the
compared paths bit-identical before reporting) and fails unless

* the batched stacked-GEMM engine beats the per-byte reference engine
  by at least ``--min-speedup`` on best-round accumulate throughput,
  and
* folding one ciphertext batch into several sensors' attacks with
  ``CPAAttack.update_many`` beats the same sensors as separate attacks
  by at least ``--min-fanout-speedup``, and
* ``key_rank_bounds`` (the tail-only convolution) beats the full
  convolution chain by at least ``--min-keyrank-speedup`` on best-round
  time over the bench's mix of score sets, and
* ``key_rank_bounds`` beats the full chain on score sets that all rank
  below 2^53 (where it counts the tail exactly) by at least the
  ``min_speedup`` the bench records in ``keyrank_below_2_53_gate``.

These are the regression gates for the accumulate and key-rank hot
paths: a change that quietly collapses the accumulate back to per-byte
speed, stops sharing the hypotheses across sensors, convolves the
whole key-score distribution again, or sends ranks below 2^53 back to
the float chain turns this red instead of shipping.
All are single-process measurements, so they hold on any core count.

Exits non-zero on a missing/stale report or an insufficient speedup.
Used by CI's bench-quick job after the benchmark run::

    PYTHONPATH=src python scripts/check_cpa_regression.py \
        --min-speedup 2 --min-fanout-speedup 1.5 --min-keyrank-speedup 1.4
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
    parser.add_argument(
        "--min-keyrank-speedup",
        type=float,
        default=1.4,
        help="required full-chain/tail-only key-rank time ratio",
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
        keyrank = report["keyrank_speedup"]
        keyrank_ms = report["key_rank"]["best_seconds_per_eval"] * 1e3
        exact = report["keyrank_below_2_53_speedup"]
        exact_ms = report["key_rank_below_2_53"]["best_seconds_per_eval"] * 1e3
        exact_gate = report["keyrank_below_2_53_gate"]
    except KeyError as exc:
        print(
            f"FAIL: {args.report} predates the current CPA report "
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
        (
            f"key rank {keyrank_ms:.1f} ms/eval vs the full convolution chain",
            keyrank, args.min_keyrank_speedup,
        ),
        (
            f"key rank below 2^53 {exact_ms:.2f} ms/eval vs the full chain",
            exact, exact_gate["min_speedup"],
        ),
    ):
        verdict = "ok" if value >= required else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{verdict}: {label} -> {value:.2f}x (required >= {required:.2f}x)")
    if not exact_gate["enforced"]:
        print("FAIL: the below-2^53 key-rank gate is recorded as not enforced")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
