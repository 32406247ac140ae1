"""Host-speed probe: a fixed piece of work timed between the operations.

The shared 2-vCPU hosts this benchmark runs on change speed by up to a
half, on scales from a second to many minutes, with no sign in the
process's own accounting (the slow state costs user and system time, not
waiting). A run's raw timings therefore tell the host's state as much as
the program's speed. The probe measures the state where the run is: a
fixed piece of work independent of trajsel, timed every PROBE_INTERVAL
seconds between operations. Each timing is then scaled by
REFERENCE_S / (probe time around it), which reads it as it would be on a
host where the probe takes REFERENCE_S. The README gives how closely the
workloads follow the probe.
"""

from __future__ import annotations

import bisect
import mmap
import statistics
import time

import numpy as np

PROBE_INTERVAL = 0.15  # seconds between probes, when operations allow
MAX_PROBES = 5  # probes in one gap between operations
REFERENCE_S = 0.0050  # probe time that scale 1.0 stands for
WINDOW = 0.25  # seconds either side of an interval whose probes count

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64)) / 8.0
_M = _rng.standard_normal((1024, 128))
_W = _rng.standard_normal((128, 128)) / 12.0
_FAULT_BYTES = 1 << 21  # fresh anonymous memory touched once per page
_PAGE = mmap.PAGESIZE


def _probe_work() -> float:
    """Interpreter loop, small numpy calls, one BLAS matmul and page faults
    on fresh memory: the kinds of work the workloads spend their time in
    (the evaluator's large temporaries make about 7 000 page faults per
    dataset scene)."""
    acc = 0
    for i in range(6000):
        acc += i * i & 0xFF
    x = _A
    for _ in range(20):
        x = np.tanh(x @ _A) + 0.5 * x
        x = x / (1.0 + np.abs(x).max())
    y = _M @ _W
    with mmap.mmap(-1, _FAULT_BYTES) as fresh:
        for off in range(0, _FAULT_BYTES, _PAGE):
            fresh[off] = acc & 0xFF
    return float(x[0, 0]) + float(y[0, 0])


class HostSpeed:
    """Probe times during a run, and the scale they give any interval."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (midpoint, probe seconds)
        self.probe_s = 0.0  # wall time spent probing

    def probe(self) -> None:
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.marks.append((0.5 * (t0 + t1), t1 - t0))
        self.probe_s += t1 - t0

    def maybe_probe(self) -> None:
        """Probe once per PROBE_INTERVAL passed since the last probe, at
        most MAX_PROBES times, so that long operations are bracketed by
        enough probes to tell the host's state."""
        due = 1 if not self.marks else min(
            MAX_PROBES, int((time.perf_counter() - self.marks[-1][0]) / PROBE_INTERVAL))
        for _ in range(due):
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the host's probe time during [t0, t1].

        That probe time is the median of the probes within WINDOW seconds
        of the interval and of the nearest probe either side of those.
        """
        mids = [m for m, _ in self.marks]
        lo = max(0, bisect.bisect_left(mids, t0 - WINDOW) - 1)
        hi = bisect.bisect_right(mids, t1 + WINDOW) + 1
        return REFERENCE_S / statistics.median(d for _, d in self.marks[lo:hi])

    def normalise(self, t0: float, t1: float) -> float:
        """The interval's length at reference speed."""
        return (t1 - t0) * self.scale(t0, t1)
