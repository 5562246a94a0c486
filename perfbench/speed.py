"""The machine's speed, sampled while a job runs.

Other tenants of a shared machine slow it 1.5-2x, switching within
seconds, in regimes that last for minutes, so a raw wall time says as much
about the neighbours as about the program. A :class:`SpeedProbe`
interrupts the process SAMPLE_HZ times a second (SIGALRM, handled in the
main thread between bytecodes) and times a fixed kernel: steps of a
42-state Viterbi recursion on fixed arrays, the small-array numpy mix that
bien's inference and learning spend their time on. The kernel never
changes, so its time measures the machine, not the program.

A span's *slowdown* is the mean kernel time of the samples taken during
it over REFERENCE_KERNEL_S, the kernel's time on an idle 2-vCPU x86-64
machine with Python 3.11.7 and numpy 2.4.6. Dividing a span's own time
(its wall time less the kernel time spent inside it) by its slowdown gives
its time at reference speed.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

SAMPLE_HZ = 20
KERNEL_STEPS = 60
REFERENCE_KERNEL_S = 0.6e-3
STATES = 42


class SpeedProbe:
    """Samples the kernel's time for the duration of a ``with`` block."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._trans = np.log(rng.random((STATES, STATES)))
        self._emis = np.log(rng.random((KERNEL_STEPS, STATES)))
        self._cols = np.arange(STATES)
        self.starts = []      # perf_counter at each sample's start
        self.kernel_s = []    # that sample's kernel time
        self._spent = [0.0]   # kernel time spent up to each sample, inclusive
        self._busy = False
        self._saved = None

    def kernel(self):
        delta = self._emis[0].copy()
        for emis in self._emis[1:]:
            scores = delta[:, None] + self._trans
            delta = scores[np.argmax(scores, axis=0), self._cols] + emis
        return delta

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.kernel_s.append(dt)
        self._spent.append(self._spent[-1] + dt)
        self._busy = False

    def __enter__(self):
        # one sample up front, so that even a very short block has one
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / SAMPLE_HZ, 1.0 / SAMPLE_HZ)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def mark(self):
        """The time now and the kernel time spent so far."""
        return time.perf_counter(), self._spent[-1]

    def reference_s(self, a, b, pad=0.0):
        """Seconds at reference speed between marks ``a`` and ``b``: the
        span's own time over the slowdown of [a - pad, b + pad]. Call it
        after the block has ended when ``pad`` looks past ``b``."""
        own = (b[0] - a[0]) - (b[1] - a[1])
        return own / self.slowdown(a[0] - pad, b[0] + pad)

    def slowdown(self, start, end):
        """Mean kernel time of the samples started in [start, end] over the
        reference; the nearest sample's when none started in it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi <= lo:
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return (self._spent[hi] - self._spent[lo]) / (hi - lo) / REFERENCE_KERNEL_S

    def summary(self):
        ms = np.array(self.kernel_s) * 1000.0
        return {
            "samples": len(ms),
            "kernel_ms_p10": float(np.percentile(ms, 10)),
            "kernel_ms_p50": float(np.percentile(ms, 50)),
            "kernel_ms_p90": float(np.percentile(ms, 90)),
        }
