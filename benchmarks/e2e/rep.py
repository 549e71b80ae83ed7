"""One benchmark rep, run in a fresh interpreter by ``run.py``.

Usage: ``python rep.py '<json spec>'``.  Prints one JSON object as its
last stdout line.  The spec's ``mode`` selects what the child does
after importing and populating the experiment registry:

* ``setup``    — nothing: the child only measures its own set-up time;
* ``prepare``  — build the optional C sampler into ``$TMPDIR`` (the
  benchmark's one build step, kept out of every timed rep);
* ``campaign`` — one ``fig5`` campaign through ``registry.run``, timed
  from call to return, optionally with per-layer tracing.

``setup_s`` runs from ``spec["spawned"]`` (the parent's wall clock just
before it started this interpreter) to the populated registry.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _digest(curves) -> str:
    """Full-precision hash of every rank point of a ``Fig5Result``."""
    h = hashlib.sha256()
    for placement, curve in curves.items():
        for p in curve.points:
            h.update(
                f"{placement}:{p.n_traces}:{float(p.log2_lower).hex()}:"
                f"{float(p.log2_upper).hex()}\n".encode()
            )
    return h.hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (pool
    worker), in MB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def _campaign(spec: dict, registry) -> dict:
    recorder = None
    if spec.get("trace_dir"):
        import spans

        recorder = spans.install(Path(spec["trace_dir"]))

    keyrank = []
    clock = {"t0": 0.0}

    def progress(event) -> None:
        if event.kind == "keyrank":
            keyrank.append((time.perf_counter() - clock["t0"], event.payload))

    config = registry.ExperimentConfig(
        scale="paper",
        seed=spec["seed"],
        workers=spec["workers"],
        cache_dir=spec.get("cache_dir"),
        options=dict(spec["options"]),
        progress=progress,
        run_dir=spec.get("run_dir"),
    )
    clock["t0"] = time.perf_counter()
    result = registry.run("fig5", config)
    campaign_s = time.perf_counter() - clock["t0"]

    curves = result.payload.curves
    # The disclosure checkpoint: the first one at or past the paper's
    # traces-to-disclosure (the last checkpoint on shorter campaigns).
    counts = {p["n_traces"] for _, p in keyrank}
    point = min((n for n in counts if n >= spec["disclosure_traces"]), default=max(counts))
    first = [t for t, p in keyrank if p["recovered"]]
    out = {
        "campaign_s": campaign_s,
        "disclosure_s": max(t for t, p in keyrank if p["n_traces"] == point),
        "first_disclosure_s": min(first) if first else None,
        "traces_to_disclosure": {
            name: curve.traces_to_disclosure for name, curve in curves.items()
        },
        "digest": _digest(curves),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if recorder is not None:
        import spans
        from repro.telemetry.runlog import read_run

        out["trace"] = {
            "parent": recorder.layers,
            "workers": spans.read_workers(Path(spec["trace_dir"])),
            "waits": recorder.waits,
            "cache": read_run(spec["run_dir"]).one("cache"),
        }
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    from repro.experiments import registry

    registry.names()
    out = {"setup_s": time.time() - spec["spawned"]}
    if spec["mode"] == "prepare":
        from repro.kernels._csampler import get_sampler

        out["csampler"] = get_sampler() is not None
    elif spec["mode"] == "campaign":
        out.update(_campaign(spec, registry))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
