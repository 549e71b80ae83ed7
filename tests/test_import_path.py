"""The experiment registry's import path carries only what a campaign runs.

``scipy`` (any of it), ``networkx`` and the HTTP client stack cost more
than a second of interpreter start-up between them, and a Fig. 5 or
Table I campaign calls none of them.  The modules that need them (the RC
mesh, the reference filter, the netlist graph checks, the remote cache
tier) import them where they are used; the sensor ramp's normal quantile
is an in-repo ``ndtri``.  This test runs in a fresh interpreter, so no
other test can have loaded them first: they must stay unloaded after the
registry is listed, and still after a quick fig5 and a quick table1
campaign, so their cost cannot have moved from start-up into the
campaign either.

The public surface is checked in-process: every name a ``repro`` module
lists in ``__all__`` must resolve, so a re-export cannot outlive the
code it pointed at.  And every module under ``src/repro`` must be
reachable by imports from an entry point (the CLI, the experiment
registry, the campaign service), so a module only tests still use
fails here instead of lingering.  A module-level import whose name the
module never uses fails too (no linter runs in CI).

The end-to-end benchmark's traced rep wraps engine, kernel, store and
experiment names from outside ``src/`` (``benchmarks/e2e/spans.py``);
installing its wrappers in a fresh interpreter must succeed, so a
rename of any name it patches fails here.
"""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

HEAVY_MODULES = ("scipy", "networkx", "http.client")

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


ROOT = Path(__file__).resolve().parents[1]


def _run_fresh(code, *args, paths=("src",)):
    """Run ``code`` in a fresh interpreter with ``paths`` (relative to
    the repository root) in front of ``PYTHONPATH``."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_CACHE_DIR", "REPRO_REMOTE_CACHE")
    }
    path = [str(ROOT / p) for p in paths]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_campaigns_never_import_heavy_modules():
    proc = _run_fresh(PROBE.format(heavy=HEAVY_MODULES))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"names": [], "fig5": [], "table1": []}


def test_e2e_bench_wrappers_install(tmp_path):
    """Every name the traced e2e rep patches still resolves."""
    proc = _run_fresh(
        "import sys, spans; spans.install(sys.argv[1])",
        str(tmp_path),
        paths=("src", "benchmarks/e2e"),
    )
    assert proc.returncode == 0, proc.stderr


def test_every_listed_public_name_resolves():
    """``from module import *`` over every ``repro`` module: each name
    an ``__all__`` lists, the lazy ``_LAZY`` ones and listed submodules
    included, must come back through ``getattr``."""
    unresolved = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            exec(f"from {info.name} import *", {})
        except (AttributeError, ImportError) as exc:
            unresolved.append(f"{info.name}: {exc}")
    assert unresolved == []


ENTRY_POINTS = ("repro.cli", "repro.experiments.registry", "repro.service")


def _module_files():
    """``{dotted name: source path}`` for every module under ``repro``."""
    root = Path(repro.__file__).resolve().parent
    files = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _imported_names(name, path, is_package):
    """Dotted names a module imports anywhere in its body (function-level
    imports included), plus the string targets of a ``_LAZY`` table."""
    package = name if is_package else name.rpartition(".")[0]
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "_LAZY" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for value in node.value.values:
                target = ast.literal_eval(value)
                yield target if target.startswith("repro.") else f"{name}.{target}"


def test_every_module_is_reachable_from_an_entry_point():
    """Walk imports from the entry points; every ``repro`` module must
    be reached.  Importing ``a.b.c`` also runs ``a`` and ``a.b``."""
    files = _module_files()
    seen, todo = set(), list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        while name and name not in seen:
            if name in files:
                seen.add(name)
                is_package = files[name].name == "__init__.py"
                todo.extend(_imported_names(name, files[name], is_package))
            name = name.rpartition(".")[0]
    assert sorted(set(files) - seen) == []


def _module_level_imports(tree):
    """``(line, bound name)`` for each import at module level, those
    under a module-level ``if``/``try`` included; ``__future__`` skipped."""
    for top in tree.body:
        nodes = ast.walk(top) if isinstance(top, (ast.If, ast.Try)) else [top]
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.asname or alias.name.partition(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    yield node.lineno, alias.asname or alias.name


def _listed_names(tree):
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_imports():
    """Every name a module of the package, the tests, the benchmarks,
    the scripts or the examples imports at module level is used in it
    (or listed in its ``__all__``).  Package ``__init__`` files
    re-export by design and are skipped."""
    package = Path(repro.__file__).resolve().parent
    repo = package.parent.parent
    unused = []
    roots = ("tests", "benchmarks", "scripts", "examples")
    for root in (package, *(repo / name for name in roots)):
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            used |= _listed_names(tree)
            for line, name in _module_level_imports(tree):
                if name not in used:
                    unused.append(f"{path.relative_to(repo)}:{line}: {name}")
    assert unused == []
