"""Machine record and in-run reference rates.

The reference rates are measured on the machine the benchmark runs on,
with a warm page cache; cold-disk I/O is not measured. They give a
scale for ``ckptstore.read_mb_per_s`` (a plain f32 -> f64 copy) and
``kernel.gram_gflops`` (one GEMM at the Gram's block shape).
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

GRAM_BLOCK = 4096  # trajkit.kernel.CHUNK: columns per Gram partial
COPY_ELEMENTS = 1 << 24  # 64 MiB of f32 source per copy
REPEATS = 5


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read through its API."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _l3_bytes() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for line in out.splitlines():
        if line.startswith("L3"):
            return line.split(":", 1)[1].strip()
    return None


def describe() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "l3_cache": _l3_bytes(),
        "cpu": platform.processor() or platform.machine(),
    }


def reference_rates(n_points: int) -> dict:
    """Copy and GEMM rates measured now, medians of a few repeats."""
    src = np.ones(COPY_ELEMENTS, dtype=np.float32)
    copy_s = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        src.astype(np.float64)
        copy_s.append(time.perf_counter() - t0)
    block = np.ones((n_points, GRAM_BLOCK))
    gemm_s = []
    for _ in range(REPEATS * 4):
        t0 = time.perf_counter()
        block @ block.T
        gemm_s.append(time.perf_counter() - t0)
    return {
        "ref.copy_mb_per_s": src.nbytes / 1e6 / statistics.median(copy_s),
        "ref.gemm_gflops": 2 * n_points * n_points * GRAM_BLOCK / 1e9
        / statistics.median(gemm_s),
    }


# Verb times are scaled to the pace at which cpu_probe() takes this long:
# about its median on an idle 2-core x86-64 VM (Xeon, 2.1 GHz, Python 3.11).
PROBE_REF_S = 0.005
_PROBE_LOOP = 60_000
_PROBE_VEC = np.linspace(0.0, 1.0, 80)
_PROBE_BLOCK = np.ones((32, GRAM_BLOCK))
_PROBE_SRC = np.ones(1 << 19, dtype=np.float32)


def cpu_probe() -> float:
    """Seconds a fixed piece of CPU work takes now, in this process.

    An interpreter loop, 300 numpy operations on an 80-vector (the shape
    of trajkit's per-step and Jacobi loops), a (32 x 4096) GEMM with its
    transpose and a 2 MiB f32 -> f64 copy: about 5 ms.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PROBE_LOOP):
        acc += i * i
    v = _PROBE_VEC
    for _ in range(300):
        v = 0.5 * v.copy() + 0.25
    _PROBE_BLOCK @ _PROBE_BLOCK.T
    _PROBE_SRC.astype(np.float64)
    return time.perf_counter() - t0


def probe_cpus(cpus: list[int]) -> dict[int, float]:
    """cpu_probe() on each CPU in turn, with this process pinned to it.

    On a shared VM each virtual CPU has its own pace at any moment (one
    can run 1.4x slower than the other for seconds), so a probe says
    something only about the CPU it ran on.
    """
    pace = {}
    for cpu in cpus:
        with pinned([cpu]):
            pace[cpu] = cpu_probe()
    return pace


@contextmanager
def pinned(cpus: list[int]):
    """Runs the block with this process pinned to cpus."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


RATES_NOTE = (
    "ref.* measured in this run, on the machine running it, with a warm page cache: a "
    f"{COPY_ELEMENTS * 4 >> 20} MiB f32 -> f64 copy and an (n x {GRAM_BLOCK}) GEMM "
    "with its transpose; cold-disk I/O is not measured"
)
