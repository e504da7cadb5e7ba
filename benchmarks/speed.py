"""Machine-speed probe for timed regions.

The machine this benchmark was written on is a 2-vCPU VM that runs the
same work up to 2x slower for tens of seconds at a time, with no steal time
showing in the guest.  Over 18-23 passes of each workload, unscaled pass
times spread (quartile distance over median) by 31-47%.  So a timed region
runs a fixed calibration kernel on SIGALRM every SAMPLE_INTERVAL seconds, and
its times are scaled to the speed at which the kernel takes KERNEL_REF_S.
Scaled by the mean kernel time, the same passes spread by 4-8%; the median
kernel time tracked the slowdowns worse (7-14%).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

KERNEL_REF_S = 7e-5
SAMPLE_INTERVAL = 0.1
_TABLE = [i / 63.0 for i in range(64)]


def _half(x):
    return 0.5 * x


def kernel() -> float:
    """About 70 us of scalar float math, calls and indexing, the mix the
    package's own loops run."""
    s = 0.0
    for i in range(256):
        x = i * 0.01
        s += math.exp(-x * x) * abs(x - 1.0) + _half(_TABLE[i & 63])
    return s


class SpeedProbe:
    """Context manager that samples the kernel every SAMPLE_INTERVAL
    seconds while its block runs.

    After the block, ``wall`` and ``cpu`` are the block's times less the
    samples' own, and ``factor`` is the mean kernel time over KERNEL_REF_S,
    leaving out descheduled samples: 2.0 means the machine ran at half the
    reference speed.
    """

    def __init__(self):
        self.samples: list = []
        self._spent = self._spent_cpu = 0.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, *_):
        c0 = time.process_time()
        self._spent += self._sample()
        self._spent_cpu += time.process_time() - c0

    @property
    def factor(self) -> float:
        # A sample that is descheduled for a few ms reads tens of times too
        # slow, out of all proportion to what the same pause costs the timed
        # work; a speed swing alone stays within 2x.  Such samples are dropped.
        cap = 4.0 * statistics.median(self.samples)
        return statistics.fmean(t for t in self.samples if t <= cap) / KERNEL_REF_S

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        self._t0, self._c0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._t0 - self._spent
        self.cpu = time.process_time() - self._c0 - self._spent_cpu
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False
