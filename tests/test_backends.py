"""Tests for the worker threadpool pinning (``repro.backends.threads``).

Pinning never raises, reports only counts it read back, and leaves
every pool worker at one BLAS thread.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.backends import threads as backend_threads


@pytest.fixture(autouse=True)
def _restore_blas_threads(monkeypatch):
    """Pinning reaches the test process's own environment and runtimes:
    start each test with the thread variables unset, and put them and
    each loaded runtime back afterwards."""
    for var in backend_threads._ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    before = backend_threads.blas_threads()
    yield
    for name, setter, _ in backend_threads._runtimes():
        if name in before:
            setter(before[name])


def _pin_in_worker(_):
    """Pool task: pin, read the counts back, and hold the worker until
    the other one got here too, so each task runs in its own worker."""
    backend_threads.pin_worker_threads()
    counts = backend_threads.blas_threads()
    _BARRIER.wait(timeout=60)
    return os.getpid(), counts


def _set_barrier(barrier):
    global _BARRIER
    _BARRIER = barrier


# ----------------------------------------------------------------------
# Threadpool pinning
# ----------------------------------------------------------------------


class TestThreads:
    def test_thread_env_vars_cover_all_runtimes(self):
        env = backend_threads.thread_env_vars(3)
        assert env["OMP_NUM_THREADS"] == "3"
        assert env["OPENBLAS_NUM_THREADS"] == "3"
        assert set(env) == set(backend_threads._ENV_VARS)

    def test_set_blas_threads_reports_and_sets_env(self):
        report = backend_threads.set_blas_threads(2)
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert all(threads == 2 for threads in report.values())

    def test_set_blas_threads_clamps_bad_counts(self):
        backend_threads.set_blas_threads(0)
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pin_worker_threads_defaults_to_one(self):
        backend_threads.pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pinning_actually_limits_a_loaded_runtime(self):
        # numpy's OpenBLAS is loaded (imported above): the pin must
        # reach it and its getter must read the new count back.
        report = backend_threads.set_blas_threads(1)
        assert report, "no loaded BLAS runtime was pinned"
        assert set(report.values()) == {1}
        counts = backend_threads.blas_threads()
        assert all(counts[name] == 1 for name in report)

    def test_report_lists_only_verified_pins(self, monkeypatch):
        # A setter that does not take is not claimed as a pin.
        monkeypatch.setattr(backend_threads, "_via_threadpoolctl", lambda n: None)
        monkeypatch.setattr(
            backend_threads, "_runtimes",
            lambda: iter([("lib_stuck.so", lambda n: None, lambda: 4)]),
        )
        assert backend_threads.set_blas_threads(1) == {}
        assert backend_threads.blas_threads() == {"lib_stuck.so": 4}

    def test_every_pool_worker_reads_back_one_thread(self):
        # Forked workers inherit the parent's loaded runtimes, so only
        # the pin itself can bring them to one thread.
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=2,
            mp_context=fork,
            initializer=_set_barrier,
            initargs=(fork.Barrier(2),),
        ) as pool:
            results = list(pool.map(_pin_in_worker, range(2)))
        assert len({pid for pid, _ in results}) == 2
        for _, counts in results:
            assert counts, "worker has no readable BLAS runtime"
            assert set(counts.values()) == {1}
