"""Host description, host-speed calibration, and per-iteration peak memory.

The benchmark host is a small VM shared with other tenants, whose load slows
every process on it by up to 2x, in bursts from a second to over a minute.
A fixed, memory-bound NumPy kernel (:func:`calibrate`), timed before each
iteration, slows down with it.  Over 35-second windows of two 4-minute
processes, the fastest ``run()`` of ``train-prefetch`` moved by up to ±24%,
while the ratio of the trimmed mean ``run()`` and kernel times moved by up
to ±7%.  The
wall-clock end-to-end metrics are therefore scaled to the host speed at which
the kernel takes :data:`CALIBRATION_REF_S`.  The kernel is part of the
benchmark, not of ``repro``, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import os
import platform
import re
import resource
import time

import numpy as np

#: Calibration kernel time, in seconds, that defines the reference host speed
#: (about the kernel's fastest time on the 2-core Xeon VM it was tuned on).
CALIBRATION_REF_S = 0.15

_TABLE_ROWS = 200_000  # 200k x 64 float32 = 51 MB, beyond the last-level cache


def calibrate() -> float:
    """Wall seconds of the fixed calibration kernel; its data is freed after."""
    rng = np.random.default_rng(0)
    table = rng.random((_TABLE_ROWS, 64), dtype=np.float32)
    ids = rng.integers(0, _TABLE_ROWS, 20_000)
    start = time.perf_counter()
    for _ in range(10):
        rows = table[ids]
        out = np.zeros((5_000, 64), dtype=np.float32)
        np.add.at(out, ids % 5_000, rows)
        np.argsort(ids)
        rows.sum()
    return time.perf_counter() - start


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark to the current RSS (Linux).

    Where ``/proc/self/clear_refs`` is not writable the mark stays, and the
    peak covers the whole process, calibration included.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`, in MB."""
    try:
        with open("/proc/self/status") as f:
            match = re.search(r"VmHWM:\s+(\d+) kB", f.read())
    except OSError:
        match = None
    if match is None:
        # ru_maxrss is in KiB on Linux.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return int(match.group(1)) / 1024


def host_metadata() -> dict:
    """Cores, Python, NumPy, and the BLAS NumPy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }
