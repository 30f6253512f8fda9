"""The environment block recorded with every result.

BLAS threading changes both speed and output bytes (the eigensolvers' results
depend on it), so a number without these settings cannot be compared.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
# numpy and scipy wheels each bundle a renamed OpenBLAS (64-bit-int suffixed)
OPENBLAS_SYMBOLS = ("scipy_openblas_get_{}64_", "scipy_openblas_get_{}",
                    "openblas_get_{}64_", "openblas_get_{}")


def _loaded_openblas() -> list[dict]:
    """Version string and thread count of each OpenBLAS loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for symbol in OPENBLAS_SYMBOLS:
            config = getattr(lib, symbol.format("config"), None)
            threads = getattr(lib, symbol.format("num_threads"), None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info.update(config=config().decode(), threads=threads())
                break
        found.append(info)
    return found


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _loaded_openblas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": _git_commit(root),
        "machine": platform.machine(),
    }
