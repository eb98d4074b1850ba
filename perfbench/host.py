"""Host pinning, fingerprint, calibration and process accounting.

The benchmark runs with the simulator's environment switches unset, so
every run resolves the same kernel backend and tile-cache default.  The
fingerprint names what a wall-time comparison depends on; two runs are
only comparable when their fingerprints are equal (``compare.py``
refuses otherwise).  The calibration loop is a fixed piece of Python
and numpy work timed beside every run, so host drift between runs is
visible next to the figures it distorts.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import time

import numpy as np

# Environment switches that change which code the simulator runs.
PINNED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_TILE_CACHE")


def pin_environment() -> None:
    """Unset the simulator's selection switches (before importing it)."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """What a wall-time comparison between two runs depends on."""
    from repro.gpu.config import GPUConfig

    config = GPUConfig()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": config.kernel_backend,
        "tile_cache": config.tile_cache_enabled,
    }


def _calibration_once() -> float:
    rng = np.random.default_rng(12345)
    values = rng.random(200_000)
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i % 7
    np.sort(values)
    np.cumsum(values)
    return (time.perf_counter() - t0) * 1e3


def calibration_ms(repeats: int = 3) -> float:
    """Median time of the fixed calibration loop, in milliseconds."""
    return statistics.median(_calibration_once() for _ in range(repeats))


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, from ``/proc/stat``.

    Stolen ticks are time the hypervisor gave the benchmark machine's CPUs to
    someone else; their share over a window shows host contention.
    """
    stat = _read("/proc/stat")
    if stat is None:
        return (0, 0)
    fields = [int(x) for x in stat.split("\n", 1)[0].split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def children_cpu_s() -> float:
    """User + system CPU seconds of the live worker processes."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in _child_pids():
        stat = _read(f"/proc/{pid}/stat")
        if stat is None:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus each live worker, in MB."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in _child_pids():
        status = _read(f"/proc/{pid}/status")
        if status is None:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += float(line.split()[1])
    return total_kb / 1024.0
