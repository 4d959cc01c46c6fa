"""Time one workload set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

The clock starts before numpy and difflab are imported, so the figure is
what a user pays between interpreter start and the first timed call.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.pin_blas_threads()
bootstrap.import_difflab()

import workloads  # noqa: E402
from pathlib import Path  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.WORKLOADS[name](seed, bootstrap.ROOT, workdir)
print(repr(time.perf_counter() - T0))
