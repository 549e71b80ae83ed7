"""Tests for the worker threadpool pinning (``repro.backends.threads``).

Pinning never raises and honours ``REPRO_BLAS_THREADS``.
"""

import os

from repro.backends import threads as backend_threads


# ----------------------------------------------------------------------
# Threadpool pinning
# ----------------------------------------------------------------------


class TestThreads:
    def test_thread_env_vars_cover_all_runtimes(self):
        env = backend_threads.thread_env_vars(3)
        assert env["OMP_NUM_THREADS"] == "3"
        assert env["OPENBLAS_NUM_THREADS"] == "3"
        assert set(env) == set(backend_threads._ENV_VARS)

    def test_set_blas_threads_reports_and_sets_env(self, monkeypatch):
        for var in backend_threads._ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        report = backend_threads.set_blas_threads(2)
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert all(threads == 2 for threads in report.values())

    def test_set_blas_threads_clamps_bad_counts(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        backend_threads.set_blas_threads(0)
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pin_worker_threads_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLAS_THREADS", raising=False)
        backend_threads.pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pin_worker_threads_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "4")
        backend_threads.pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "4"

    def test_pin_worker_threads_survives_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "lots")
        backend_threads.pin_worker_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_pinning_actually_limits_a_loaded_runtime(self):
        # On this interpreter numpy's OpenBLAS (or an OMP runtime) is
        # loaded; the ctypes walk should find at least one setter, or
        # threadpoolctl should have reported pools.  Tolerate neither
        # (static BLAS builds) but require the call to stay silent.
        report = backend_threads.set_blas_threads(1)
        assert isinstance(report, dict)
