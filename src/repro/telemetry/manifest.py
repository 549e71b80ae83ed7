"""Self-describing run manifests.

Every experiment run that writes telemetry gets a ``manifest.json``
next to its results answering "what exactly produced this output":

* the **identity** of the computation — experiment name, scale, root
  seed, resolved option overrides, shard geometry and a canonical
  ``config_hash`` over all of it (the same canonical-JSON hashing the
  trace block cache keys use);
* the **environment** it ran in — python/numpy versions, platform,
  hostname, CPU count, git SHA of the working tree (best effort);
* the run-log ``schema`` version, so readers can refuse logs they do
  not understand.

:func:`manifest_hash` covers only the *identity* section: two runs of
the same configuration and seed produce the same hash on any host, any
day — the stability test in ``tests/test_telemetry.py`` pins this down,
and ``repro report diff`` uses it to tell "same experiment, regressed"
from "you are comparing different campaigns".
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.traces.blockstore import block_key

#: Version of the run manifest + JSONL run-log event schema.  Bump when
#: a field changes meaning or disappears; readers reject newer schemas.
RUN_SCHEMA_VERSION = 1

__all__ = ["RUN_SCHEMA_VERSION", "build_manifest", "manifest_hash"]


def _git_sha() -> Optional[str]:
    """The working tree's commit SHA, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def build_manifest(
    experiment: str,
    *,
    scale: str,
    seed: int,
    workers: int,
    shard_size: int,
    options: Optional[Mapping[str, Any]] = None,
    cache_provenance: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest for one run.

    ``options`` must be canonicalizable (plain scalars / sequences /
    mappings / numpy values — the block-key rules).
    ``cache_provenance`` records where this run's blocks lived (store
    tiers, producing host, schedule) — environment description, like
    ``host``/``versions``, so it stays *outside* the config hash:
    which cache served a block never changes what the block holds.
    """
    config: Dict[str, Any] = {
        "experiment": experiment,
        "scale": scale,
        "seed": int(seed),
        "shard_size": int(shard_size),
        "options": dict(options or {}),
    }
    return {
        "schema": RUN_SCHEMA_VERSION,
        "config": config,
        "config_hash": block_key({"run-config": config, "schema": RUN_SCHEMA_VERSION}),
        "seed_lineage": {"entropy": int(seed), "spawn_key": []},
        # Environment: informational, excluded from manifest_hash.
        "workers": int(workers),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "node": platform.node(),
            "cpu_count": os.cpu_count(),
        },
        "cache_provenance": dict(cache_provenance) if cache_provenance else None,
        "git_sha": _git_sha(),
    }


def manifest_hash(manifest: Mapping[str, Any]) -> str:
    """Stable identity hash of a manifest.

    Covers the schema version and the identity ``config`` section only
    — never versions, host or git state — so the same configuration and
    seed hash identically across machines and reruns.
    """
    return block_key(
        {"schema": manifest["schema"], "config": manifest["config"]}
    )
