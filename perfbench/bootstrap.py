"""Process set-up shared by the benchmark driver and its set-up probe.

Pins the BLAS thread count before numpy is imported, puts the checkout's
``src`` first on the import path and refuses a ``difflab`` imported from
anywhere else, so the benchmark always measures the code it sits next to.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Clamp every BLAS thread variable to at most nproc (default: nproc)."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(max(1, min(want, n)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_difflab():
    """Import difflab from ROOT/src; exit non-zero when the sources are absent."""
    src = ROOT / "src"
    if not (src / "difflab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no difflab sources under {src}")
    sys.path.insert(0, str(src))
    import difflab

    if Path(difflab.__file__).resolve().parent != (src / "difflab").resolve():
        raise SystemExit(f"benchmark: difflab was imported from {difflab.__file__}, not {src}")
    return difflab


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it is not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def fingerprint() -> dict:
    """Python, numpy and BLAS versions, BLAS threads and the CPUs available."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc(),
        "machine": platform.machine(),
    }
