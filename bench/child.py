"""One pipeline run in a fresh interpreter; prints one JSON object.

    python bench/child.py <workload> <seed> <size> <trace 0|1> [setup-only|force-fail]

Set-up ends once fracac is imported and the seeded inputs exist; the
monotonic clock at that point goes back to the parent, which started its
own clock just before spawning this process (CLOCK_MONOTONIC is shared by
all processes of the machine).  The pipeline is timed after that, while a
host-speed probe samples how fast the CPU runs (see ``Probe``).
"""

import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fracac  # noqa: E402
import numpy as np  # noqa: E402

from spans import Tracer, maxrss_mb, summarize, top_level_busy  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


def digest(numbers: dict) -> str:
    """sha256 over the exact reprs of every key number."""
    h = hashlib.sha256()
    for key in sorted(numbers):
        h.update(key.encode())
        for v in np.ravel(np.asarray(numbers[key], dtype=float)):
            h.update(repr(float(v)).encode())
    return h.hexdigest()


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fracac": fracac.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("FRACAC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Probe:
    """Times a fixed small task every PERIOD_S seconds while the pipeline runs.

    A shared host runs this process's CPU at speeds up to 1.6x apart, in
    phases of seconds to minutes.  The task (small dense solves, an FFT and
    a Python loop, about 1 ms) needs no fracac code, so its time tracks the
    host's speed during the pipeline and nothing else.  It runs from a
    SIGALRM handler, between bytecodes of the pipeline, and costs under 1%
    of the pipeline's time.
    """

    PERIOD_S = 0.2

    def __init__(self):
        self.samples = []
        self.a = np.random.default_rng(0).normal(size=(48, 48))

    def task(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            np.linalg.solve(self.a, self.a[:, 0])
        acc = 0
        for i in range(3000):
            acc += i * i
        np.fft.rfft2(self.a)
        return time.perf_counter() - t0

    def mean_s(self) -> float:
        """Probe time over the pipeline: the mean of the middle 80%.  Probes
        are spread evenly over the pipeline, so their mean follows the
        time-averaged speed that sets its wall time (a median would follow
        whichever speed phase lasted longest); the trim drops probes hit by
        a stray pause."""
        t = np.sort(self.samples)
        cut = len(t) // 10
        return float(t[cut:len(t) - cut].mean())

    def _tick(self, signum, frame):
        self.samples.append(self.task())

    def __enter__(self):
        for _ in range(20):             # warm caches and lazy imports
            self.task()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:            # pipeline shorter than one period
            self.samples.append(self.task())


def main(argv) -> int:
    workload, seed, size, trace = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    mode = argv[5] if len(argv) > 5 else ""
    make_inputs, run = WORKLOADS[workload]
    inp = make_inputs(seed, size)
    setup_done = time.monotonic()
    if mode == "setup-only":
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = Tracer(trace, f"{workload}-{seed}-{os.getpid()}")
    checks = Checks(force_fail=mode == "force-fail")
    with Probe() as probe:
        cpu0, t0 = cpu_seconds(), time.monotonic()
        numbers = run(inp, tracer, checks)
        wall, cpu = time.monotonic() - t0, cpu_seconds() - cpu0
    out = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": maxrss_mb(),
        "probe_s": probe.mean_s(),
        "probes": len(probe.samples),
        "checks": checks.items,
        "digest": digest(numbers),
        "env": environment(),
    }
    if trace:
        out["layers"] = summarize(tracer.spans, tracer.counters)
        out["span_coverage"] = top_level_busy(tracer.spans) / wall
        out["spans"] = [{**sp, "start": sp["start"] - t0, "end": sp["end"] - t0}
                        for sp in tracer.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
