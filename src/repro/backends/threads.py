"""BLAS / OpenMP threadpool pinning for worker processes.

The engine parallelizes across *processes*; inside a worker every BLAS
call (the fused droop matmul, the stacked CPA GEMM) should therefore
run single-threaded, or an N-worker pool on a C-core machine spawns
N*C BLAS threads that fight each other for cores (classic
oversubscription — each GEMM gets slower, not faster).

``threadpoolctl`` is used when it is installed.  Otherwise a small
ctypes fallback walks the shared libraries already loaded into the
process (``/proc/self/maps`` on Linux) and calls the setter of every
recognised BLAS/OpenMP runtime directly — this covers forked workers,
where the libraries are inherited already-loaded and environment
variables are read too late to matter.  Each runtime is known by a
(setter, getter) symbol pair, and a pin counts only once the getter
reads the new count back: the wheels prefix their exports
differently (numpy's ``libscipy_openblas64_`` exports
``scipy_openblas_set_num_threads64_``, scipy's ``libscipy_openblas``
``scipy_openblas_set_num_threads``), and a setter that silently misses
must show up as an empty report, not as a claimed pin.  The usual
environment variables are always exported as well so spawn-mode
children and late-loaded libraries comply.

Everything here is best-effort by design: pinning failures must never
take down a campaign, so every entry point swallows its errors
and reports what it actually managed to pin.
"""

from __future__ import annotations

import ctypes
import os
import re
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "blas_threads",
    "set_blas_threads",
    "pin_worker_threads",
    "thread_env_vars",
]

#: Environment variables the common numeric runtimes honour.
_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Loaded-library filename pattern -> candidate (setter, getter) symbol
#: pairs, tried in order; the first pair the library exports is used.
_LIB_SETTERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    (
        r"openblas",
        (
            ("openblas_set_num_threads", "openblas_get_num_threads"),
            ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
            # numpy wheels (ILP64) and scipy wheels (LP64).
            ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
            ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
        ),
    ),
    (r"mkl_rt", (("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),)),
    (r"blis", (("bli_thread_set_num_threads", "bli_thread_get_num_threads"),)),
    (r"(libgomp|libomp|libiomp)", (("omp_set_num_threads", "omp_get_max_threads"),)),
)


def thread_env_vars(n: int) -> Dict[str, str]:
    """The environment assignments that pin common runtimes to ``n``."""
    return {name: str(int(n)) for name in _ENV_VARS}


def _loaded_library_paths() -> List[str]:
    """Paths of shared libraries mapped into this process (Linux)."""
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split(None, 5)[-1].strip() if " " in line else ""
                if path.startswith("/") and ".so" in os.path.basename(path):
                    if path not in paths:
                        paths.append(path)
    except OSError:
        pass
    return paths


def _via_threadpoolctl(n: Optional[int]) -> Optional[Dict[str, int]]:
    """Limit every pool to ``n`` threads (``None``: leave them) through
    threadpoolctl and read the counts back; None when it is not
    installed or fails."""
    try:
        import threadpoolctl
    except ImportError:
        return None
    try:
        if n is not None:
            threadpoolctl.threadpool_limits(limits=n)
        return {
            os.path.basename(info["filepath"]).lower(): int(info["num_threads"])
            for info in threadpoolctl.threadpool_info()
        }
    except Exception:
        return None


def _runtimes() -> Iterator[Tuple[str, Callable[[int], None], Callable[[], int]]]:
    """``(library, setter, getter)`` of every recognised runtime already
    loaded into this process."""
    for path in _loaded_library_paths():
        base = os.path.basename(path).lower()
        for pattern, pairs in _LIB_SETTERS:
            if not re.search(pattern, base):
                continue
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                break
            for set_name, get_name in pairs:
                setter = getattr(lib, set_name, None)
                getter = getattr(lib, get_name, None)
                if setter is None or getter is None:
                    continue
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                yield base, setter, getter
                break
            break


def _via_ctypes(n: Optional[int]) -> Dict[str, int]:
    """Call the setter (unless ``n`` is None), then the getter, of every
    recognised, already-loaded runtime."""
    counts: Dict[str, int] = {}
    try:
        for name, setter, getter in _runtimes():
            if n is not None:
                setter(n)
            counts[name] = getter()
    except Exception:
        pass
    return counts


def blas_threads() -> Dict[str, int]:
    """``{runtime: threads}`` as read back from every recognised BLAS/
    OpenMP runtime loaded into this process.  Never raises."""
    counts = _via_threadpoolctl(None)
    return _via_ctypes(None) if counts is None else counts


def set_blas_threads(n: int) -> Dict[str, int]:
    """Pin every reachable BLAS/OpenMP pool to ``n`` threads.

    Exports the standard environment variables (for children and
    late-loaded libraries), then limits the pools already loaded into
    this process — via threadpoolctl when installed, via direct ctypes
    calls otherwise — and reads each count back.  Returns a
    ``{runtime: threads}`` report of the verified pins only; an empty
    report means only the environment was set.  Never raises.
    """
    n = max(1, int(n))
    os.environ.update(thread_env_vars(n))
    counts = _via_threadpoolctl(n)
    if counts is None:
        counts = _via_ctypes(n)
    return {name: threads for name, threads in counts.items() if threads == n}


def pin_worker_threads() -> Dict[str, int]:
    """Pin this *worker process* to one BLAS/OpenMP thread.

    Called from the engine's pool initializers: the process pool does
    the parallelism, and nested threadpools thrash.  The parent is left
    alone — pinning it beside the workers gained nothing measurable.
    """
    return set_blas_threads(1)
