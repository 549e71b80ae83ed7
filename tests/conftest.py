"""Shared fixtures: module-scoped device/board objects keep the suite
fast (building site maps and placing 16k-cell viruses once, not per
test).

Also registers the deterministic hypothesis profile (derandomized, no
deadline) used for tier-1 runs, the ``--update-goldens`` flag that
rewrites ``tests/golden/*.json`` from the current outputs, and a
session-wide check that no test leaks a shared-memory segment.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.fpga.device import xc7a35t, zu3eg
from repro.fpga.placement import Placer
from repro.runtime.scheduler import RESULT_SEGMENT_PREFIX

try:  # hypothesis is a dev-only dependency; the suite degrades gracefully.
    from hypothesis import HealthCheck, settings as hypothesis_settings

    # The suite's strategies are constructive (no assume()-heavy
    # filtering), so filter_too_much stays enforced: a strategy that
    # starts rejecting most draws is a bug, not an environment quirk.
    hypothesis_settings.register_profile(
        "repro",
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))
except ImportError:  # pragma: no cover - exercised only without hypothesis
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current outputs",
    )


def _engine_segments():
    """Names in ``/dev/shm`` of the engine's shared-memory buffers
    (``psm_*``) and pool shard results (empty off Linux)."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {
        name
        for name in os.listdir(shm)
        if name.startswith(("psm_", RESULT_SEGMENT_PREFIX))
    }


@pytest.fixture(scope="session", autouse=True)
def no_leaked_segments():
    """Fail the session if a segment made during it outlives it."""
    before = _engine_segments()
    yield
    leaked = _engine_segments() - before
    assert not leaked, f"shared-memory segments leaked: {sorted(leaked)}"


@pytest.fixture(scope="session")
def update_goldens(request):
    """Whether this run should rewrite the golden files."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def basys3_device():
    return xc7a35t()


@pytest.fixture(scope="session")
def zu3eg_device():
    return zu3eg()


@pytest.fixture()
def placer(basys3_device):
    return Placer(basys3_device)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
