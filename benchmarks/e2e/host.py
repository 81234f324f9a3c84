"""The machine a result was measured on, recorded in every result file."""

from __future__ import annotations

import multiprocessing
import os
import platform
import sys


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def describe() -> dict:
    import numpy
    import scipy

    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": usable_cores(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(allow_none=False),
        "loadavg_at_start": list(os.getloadavg()),
    }
