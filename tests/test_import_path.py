"""The experiment registry's import path carries only what a campaign runs.

``scipy.stats``, ``scipy.signal``, ``scipy.sparse`` and ``networkx`` cost
about a second of interpreter start-up between them, and a Fig. 5 or
Table I campaign calls none of them.  The modules that need them (the RC
mesh, the reference filter, the netlist graph checks) import them where
they are used.  This test runs in a fresh interpreter, so no other test
can have loaded them first: they must stay unloaded after the registry
is listed, and still after a quick fig5 and a quick table1 campaign, so
their cost cannot have moved from start-up into the campaign either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY_MODULES = ("scipy.stats", "scipy.signal", "scipy.sparse", "networkx")

PROBE = """
import json
import sys

from repro.experiments import registry

def loaded():
    return [m for m in {heavy!r} if m in sys.modules]

seen = {{}}
registry.names()
seen["names"] = loaded()
registry.run("fig5", registry.ExperimentConfig(
    scale="quick", seed=1,
    options={{"placements": ("P6", "P2"), "n_traces": 4096, "step": 2048,
              "rating_at": 4096}},
))
seen["fig5"] = loaded()
registry.run("table1", registry.ExperimentConfig(
    scale="quick", seed=1, options={{"n_traces": 4096, "step": 2048}},
))
seen["table1"] = loaded()
print(json.dumps(seen))
"""


def test_campaigns_never_import_heavy_modules():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_CACHE_DIR", "REPRO_REMOTE_CACHE")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=HEAVY_MODULES)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"names": [], "fig5": [], "table1": []}
