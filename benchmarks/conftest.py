"""Shared benchmark helpers.

Every bench regenerates one paper table/figure.  By default the
workloads are scaled down so the whole suite runs on a laptop in
minutes; set ``REPRO_FULL=1`` for paper-scale runs.  Each bench stores
its regenerated rows in ``benchmark.extra_info`` so the numbers ship
with the benchmark report.
"""

import os


def full_scale() -> bool:
    """Whether paper-scale workloads were requested."""
    return os.environ.get("REPRO_FULL", "0") == "1"


def worker_count() -> int:
    """Acquisition workers for the benches (``REPRO_WORKERS``, default 1).

    Results are deterministic in the seed regardless of this value; it
    only changes wall clock.
    """
    return int(os.environ.get("REPRO_WORKERS", "1"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark clock
    (experiments are minutes-long; multiple rounds would be wasteful)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
