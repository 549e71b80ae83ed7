"""Tests for the pluggable compute-backend registry (``repro.backends``).

The load-bearing properties:

* the registry is capability-probing — unavailable backends are listed
  but not selectable, and selecting one fails with the probe's reason;
* backend selection composes: ``REPRO_BACKEND`` < ``activate_backend``
  < an explicit ``--kernel``/``accumulate=`` override;
* activating the ``numpy`` backend steers every seam to the pure-numpy
  oracle path (reference kernel, numpy fan-out sampler, per-byte CPA),
  and activation is reversible;
* third-party registration is guarded (reserved names, duplicates,
  active backends);
* the worker threadpool pinning never raises and honours
  ``REPRO_BLAS_THREADS``;
* when numba is present, its sampler and kernel are bit-identical to
  the fused path (the differential contract every backend must meet).
"""

import importlib.util
import os

import numpy as np
import pytest

from repro import backends
from repro.backends import (
    Backend,
    activate_backend,
    active_backend_name,
    all_backends,
    available_backends,
    cpa_accumulate_mode,
    default_backend_name,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends import threads as backend_threads
from repro.backends import numba_backend
from repro.errors import ConfigurationError, ReproError
from repro.kernels import aes_trace, default_kernel_name
from repro.kernels import fanout

HAVE_NUMBA = importlib.util.find_spec("numba") is not None


@pytest.fixture
def restore_backend_state():
    """Snapshot and restore every piece of backend process state."""
    prev_active = backends._ACTIVE[0]
    prev_default = aes_trace._DEFAULT_KERNEL
    prev_provider = fanout._SAMPLER_PROVIDER
    yield
    backends._ACTIVE[0] = prev_active
    aes_trace._DEFAULT_KERNEL = prev_default
    fanout._SAMPLER_PROVIDER = prev_provider


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert {"fused", "numpy", "numba"} <= set(all_backends())

    def test_always_available_backends(self):
        avail = available_backends()
        assert "fused" in avail and "numpy" in avail

    def test_numba_availability_tracks_import(self):
        assert ("numba" in available_backends()) == (
            numba_backend.numba_unavailable_reason() is None
        )

    def test_unknown_backend_names_registered(self):
        with pytest.raises(ConfigurationError, match="fused"):
            get_backend("cuda")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_unavailable_backend_reports_reason(self):
        with pytest.raises(ConfigurationError, match="numba is not installed"):
            get_backend("numba")

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            get_backend("nope")

    def test_register_requires_backend_instance(self):
        with pytest.raises(ConfigurationError):
            register_backend("fast")

    def test_register_rejects_reserved_names(self):
        for name in ("fused", "numpy", "numba"):
            with pytest.raises(ConfigurationError, match="reserved"):
                register_backend(Backend(name=name, description="", kernel="fused"))

    def test_register_rejects_bad_accumulate_mode(self):
        with pytest.raises(ConfigurationError, match="cpa_accumulate"):
            register_backend(
                Backend(
                    name="weird", description="", kernel="fused",
                    cpa_accumulate="sideways",
                )
            )

    def test_register_unregister_round_trip(self):
        backend = Backend(
            name="thirdparty", description="test", kernel="fused"
        )
        assert register_backend(backend) == "thirdparty"
        try:
            assert "thirdparty" in all_backends()
            assert get_backend("thirdparty") is backend
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend(backend)
            replacement = Backend(
                name="thirdparty", description="v2", kernel="fused"
            )
            register_backend(replacement, replace=True)
            assert get_backend("thirdparty") is replacement
        finally:
            unregister_backend("thirdparty")
        assert "thirdparty" not in all_backends()

    def test_unregister_guards(self, restore_backend_state):
        with pytest.raises(ConfigurationError, match="built-in"):
            unregister_backend("fused")
        with pytest.raises(ConfigurationError, match="unknown"):
            unregister_backend("ghost")
        register_backend(Backend(name="briefly", description="", kernel="fused"))
        try:
            activate_backend("briefly")
            with pytest.raises(ConfigurationError, match="active"):
                unregister_backend("briefly")
        finally:
            activate_backend("fused")
            unregister_backend("briefly")

    def test_probe_failure_keeps_backend_listed(self):
        backend = Backend(
            name="broken", description="", kernel="fused",
            probe=lambda: "no accelerator attached",
        )
        register_backend(backend)
        try:
            assert "broken" in all_backends()
            assert "broken" not in available_backends()
            with pytest.raises(ConfigurationError, match="no accelerator"):
                get_backend("broken")
        finally:
            unregister_backend("broken")


# ----------------------------------------------------------------------
# Selection and activation
# ----------------------------------------------------------------------


class TestSelection:
    def test_default_backend_is_fused(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "fused"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        assert active_backend_name() == "numpy"
        assert cpa_accumulate_mode() == "per-byte"

    def test_unknown_env_backend_fails_loudly_on_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "typo")
        with pytest.raises(ConfigurationError, match="typo"):
            get_backend()
        with pytest.raises(ConfigurationError, match="typo"):
            cpa_accumulate_mode()

    def test_explicit_accumulate_mode_passes_through(self):
        assert cpa_accumulate_mode("batched") == "batched"
        assert cpa_accumulate_mode("per-byte") == "per-byte"
        with pytest.raises(ConfigurationError, match="accumulate"):
            cpa_accumulate_mode("vectorized")

    def test_activate_numpy_steers_all_seams(
        self, restore_backend_state, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backends._ACTIVE[0] = None
        previous = activate_backend("numpy")
        assert previous == "fused"
        assert active_backend_name() == "numpy"
        assert default_kernel_name() == "reference"
        assert fanout._active_sampler() is None  # C sampler bypassed
        assert cpa_accumulate_mode() == "per-byte"
        assert activate_backend(previous) == "numpy"
        assert default_kernel_name() == "fused"
        assert cpa_accumulate_mode() == "batched"

    def test_explicit_kernel_overrides_backend(self, restore_backend_state):
        activate_backend("numpy")
        aes_trace.set_default_kernel("fused")
        assert default_kernel_name() == "fused"  # finer-grained knob wins
        assert active_backend_name() == "numpy"

    def test_env_kernel_mapping(self):
        # REPRO_BACKEND=numpy must reach the kernel default even in
        # freshly spawned processes that never call activate_backend.
        assert aes_trace._ENV_BACKEND_KERNELS["numpy"] == "reference"
        assert aes_trace._ENV_BACKEND_KERNELS["fused"] == "fused"

    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig5", "--backend", "numpy"])
        assert args.backend == "numpy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--backend", "cuda"])

    def test_cli_validates_env_backend_eagerly(
        self, restore_backend_state, monkeypatch, capsys
    ):
        # A mistyped REPRO_BACKEND must fail the CLI on *every*
        # experiment — including ones that never resolve a backend seam
        # — not silently compute on the default path.
        from repro.cli import main

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert main(["pdn-validation", "--seed", "1"]) == 2
        assert "unknown backend 'bogus'" in capsys.readouterr().err

    def test_cli_unavailable_backend_is_clean_error(
        self, restore_backend_state, capsys
    ):
        # --backend resolution errors (e.g. numba not installed) must go
        # through the CLI's ReproError presentation, not a traceback.
        from repro.backends.numba_backend import numba_unavailable_reason
        from repro.cli import main

        if numba_unavailable_reason() is None:
            pytest.skip("numba installed; no unavailable builtin to test")
        assert main(["pdn-validation", "--backend", "numba"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unavailable" in err


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


# ----------------------------------------------------------------------
# numba backend
# ----------------------------------------------------------------------


class TestNumbaBackend:
    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_absent_numba_reports_not_installed(self):
        assert numba_backend.numba_unavailable_reason() == "numba is not installed"
        assert numba_backend.numba_sampler() is None

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed")
    def test_absent_numba_blocks_activation(self, restore_backend_state):
        with pytest.raises(ConfigurationError, match="numba"):
            activate_backend("numba")
        # Nothing was half-applied.
        assert active_backend_name() != "numba"

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_numba_sampler_passes_self_test(self):
        from repro.kernels._csampler import _self_test

        sampler = numba_backend.numba_sampler()
        assert sampler is not None
        assert _self_test(sampler)

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_numba_kernel_bit_identical_to_fused(
        self, basys3_device, restore_backend_state
    ):
        from repro.core.calibration import calibrate
        from repro.core.leaky_dsp import LeakyDSP
        from repro.fpga.placement import Pblock, Placer
        from repro.pdn.coupling import CouplingModel
        from repro.timing.sampling import ClockSpec
        from repro.traces.acquisition import AcquisitionSpec
        from repro.victims.aes import AES128, AESHardwareModel

        activate_backend("numba")
        try:
            coupling = CouplingModel(basys3_device)
            placer = Placer(basys3_device)
            sensor = LeakyDSP(device=basys3_device, seed=7)
            sensor.place(
                placer,
                pblock=Pblock.from_region(basys3_device.region_by_name("X1Y0")),
            )
            calibrate(sensor, rng=0)
            hw = AESHardwareModel(ClockSpec(20e6), ClockSpec(300e6))

            def acquire(kernel):
                acq = AcquisitionSpec(
                    sensor=sensor, coupling=coupling, hw_model=hw,
                    aes_position=(10.0, 25.0), kernel=kernel,
                ).build()
                aes = AES128(bytes(range(16)))
                pts = np.random.default_rng(11).integers(
                    0, 256, (256, 16), dtype=np.uint8
                )
                return acq.acquire_block(
                    aes, pts, np.random.default_rng(11), acq.default_n_samples()
                )

            r_n, c_n = acquire("numba")
            r_f, c_f = acquire("fused")
            np.testing.assert_array_equal(r_n, r_f)
            np.testing.assert_array_equal(c_n, c_f)
        finally:
            activate_backend("fused")
