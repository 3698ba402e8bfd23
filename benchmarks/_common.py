"""Shared helpers for the script mode of the benchmark modules.

Every ``bench_*.py`` module doubles as a pytest-benchmark suite (run with
``pytest benchmarks/ --benchmark-only``) and as a standalone script that
writes a machine-readable ``BENCH_<name>.json`` for the CI smoke job.  The
JSON payload carries a *calibration* measurement (a fixed NumPy workload) so
the baseline comparison can normalise away the raw speed difference between
the machine that committed the baseline and the CI runner.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Callable

import numpy as np

__all__ = ["best_of", "calibrate", "write_payload"]


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock time of ``fn`` in seconds.

    Convention: every measurement starts with one *untimed* warm-up call, so
    one-time costs — lazy module imports, allocator warm-up — never land in the recorded best.
    Benchmarks that want cold-start numbers must time it themselves.
    """
    fn()
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibrate(size: int = 400, repeats: int = 5) -> float:
    """Time a fixed NumPy workload, used to normalise cross-machine timings."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))

    def workload() -> None:
        b = a @ a
        np.linalg.norm(b)
        np.sort(b, axis=1)

    return best_of(workload, repeats)


def write_payload(
    name: str,
    config: dict,
    benchmarks: dict,
    derived: dict | None = None,
    output: str | None = None,
) -> dict:
    """Assemble the benchmark payload and write it to ``output`` (if given)."""
    payload = {
        "benchmark": name,
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "config": config,
        "calibration_seconds": calibrate(),
        "benchmarks": benchmarks,
        "derived": derived or {},
    }
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")
    return payload
