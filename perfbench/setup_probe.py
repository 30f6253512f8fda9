"""Set-up time in a fresh interpreter: import travwave.cli and build every
problem, factor and seed of the given config files.

Usage: python3 setup_probe.py COMMAND=CONFIG [COMMAND=CONFIG ...]
Prints the elapsed seconds.  travwave must be importable (PYTHONPATH=src).
"""

import sys
import time
from pathlib import Path

from workloads import Call, build_all

if __name__ == "__main__":
    calls = []
    for arg in sys.argv[1:]:
        command, config = arg.split("=", 1)
        calls.append(Call(command, Path(config).stem, Path(config)))
    start = time.perf_counter()
    import travwave.cli

    build_all(travwave.cli, calls)
    print(repr(time.perf_counter() - start))
