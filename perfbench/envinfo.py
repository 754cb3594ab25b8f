"""The environment block of a benchmark report.

BLAS and OpenMP thread variables are recorded, never set: pinning them would
hide the threading cost of numpy's BLAS calls inside the fitters.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.metadata
import os
import platform
import re
import subprocess

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def environment(root):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = os.path.join(root, "src")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "effective_threads": openblas_threads(),
        },
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(root),
        "src_sha256": tree_digest(src),
        "src_lines": line_count(src),
    }


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def openblas_threads():
    """Threads the loaded OpenBLAS will use, or None if none is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit(root):
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _python_files(src):
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def line_count(src):
    total = 0
    for path in _python_files(src):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def tree_digest(src):
    """sha256 over the relative path and bytes of every .py file under src."""
    digest = hashlib.sha256()
    for path in _python_files(src):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def parse_importtime(stderr):
    """Self time of procwatt's modules and cumulative numpy and scipy.special, in ms."""
    own_us = numpy_us = special_us = 0
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        self_us, cumulative_us, module = int(match[1]), int(match[2]), match[3]
        if module == "procwatt" or module.startswith("procwatt."):
            own_us += self_us
        elif module == "numpy":
            numpy_us = cumulative_us
        elif module == "scipy.special":
            special_us = cumulative_us
    return {
        "import.procwatt_ms": own_us / 1e3,
        "import.numpy_ms": numpy_us / 1e3,
        "import.scipy_special_ms": special_us / 1e3,
    }
