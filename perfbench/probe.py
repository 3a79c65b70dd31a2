"""Environment probe: thread pins, source location, set-up time and memory."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

LOAD_SHAPE = "one process, one client, closed loop"

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import heisenmech.cli; "
                 "print(repr(time.perf_counter() - t))")


# Reference kernel: a fixed pure-Python loop owned by the benchmark. Its time
# follows the host's speed (frequency and co-tenant load on shared machines)
# with an elasticity close to 1 for heisenmech's interpreter-bound work, and
# no change to the program can move it.
REF_ITERATIONS = 100_000
REF_NOMINAL_S = 0.0055  # kernel time on an unloaded 2-vCPU host


def reference_kernel() -> int:
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i
    return total


class HostSpeed:
    """Reference-kernel samples taken around every timed interval.

    scale() turns a time measured between two samples into the time at
    nominal host speed: it multiplies by REF_NOMINAL_S over the mean of the
    kernel times just before and just after the interval.
    """

    def __init__(self, per_sample: int = 3):
        self.per_sample = per_sample
        self.samples: list[float] = []

    def sample(self) -> float:
        """Median kernel time of one sample, also kept in self.samples."""
        times = []
        for _ in range(self.per_sample):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * REF_NOMINAL_S / (0.5 * (before + after))

    def factor(self) -> float:
        """Nominal over the run's median kernel time (for reports)."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def pin_threads() -> None:
    """One BLAS/OpenMP thread, for this process and every child it starts.

    Must run before numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def source_dir(root: Path) -> Path:
    """The checkout's src/ directory, put first on the import path.

    Raises SystemExit when the checkout holds no heisenmech sources, so the
    benchmark never measures an installed copy instead of the checkout.
    """
    src = root / "src"
    if not (src / "heisenmech" / "cli.py").is_file():
        raise SystemExit(f"no heisenmech sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def setup_seconds(src: Path, launches: int,
                  host: HostSpeed) -> list[tuple[float, float]]:
    """(measured, scaled) wall time of `import heisenmech.cli` in fresh
    interpreters, one pair per launch."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    before = host.sample()
    for _ in range(launches):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env,
                              cwd=src.parent, capture_output=True, text=True,
                              timeout=60, check=True)
        took = float(done.stdout.strip().splitlines()[-1])
        after = host.sample()
        times.append((took, host.scale(took, before, after)))
        before = after
    return times


def peak_rss_mb() -> float:
    """ru_maxrss of this process (reported in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_shape": LOAD_SHAPE,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
