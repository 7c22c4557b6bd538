"""A machine-speed reference measured during each pass.

On a shared 2-vCPU KVM guest the CPU's speed drifted by up to 1.7x within
minutes, so identical passes took very different times.  While a pass runs,
a CPU-time timer interrupts it every INTERVAL_S; the pass then waits while a
helper process runs ``kernel``, a fixed pure-Python Fraction computation
that shares no code with isospec, and reports the kernel's CPU time.  The
helper is forked before isospec is imported and keeps its own heap, so
whatever isospec allocates, caches or collects cannot change the kernel's
time.  A pass's CPU time divided by the mean kernel time, its cost in kernel
units, follows the work done more closely than the raw time does (see
perfbench/BASELINE.json for both spreads).  The kernel reacts to the drift
more strongly than isospec's passes do, so the correction is partial.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
import time
from fractions import Fraction

INTERVAL_S = 0.25
_REPLY = struct.Struct("d")


def kernel() -> list[Fraction]:
    """Expand prod (x - (2k+1)/7) over k < 60; about 10 ms of Fraction work."""
    coeffs = [Fraction(1)]
    for k in range(60):
        root = Fraction(2 * k + 1, 7)
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= root * c
        coeffs = shifted
    return coeffs


def _serve(requests: int, replies: int):
    """Helper loop: one kernel run per request byte, until end of file."""
    try:
        while os.read(requests, 1):
            cpu0 = time.process_time()
            kernel()
            os.write(replies, _REPLY.pack(time.process_time() - cpu0))
    finally:
        os._exit(0)


class Sampler:
    """Has the helper run ``kernel`` every INTERVAL_S of this process's CPU
    time between ``start`` and ``stop``, and totals what the samples cost
    this process: the wall time spent waiting and the CPU time spent in the
    handler.  ``close`` ends the helper and waits for it."""

    def __init__(self):
        self.samples: list[float] = []  # the helper's CPU seconds per kernel run
        self.wall_s = 0.0
        self.cpu_s = 0.0
        requests_r, self._requests = os.pipe()
        self._replies, replies_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._requests)
            os.close(self._replies)
            _serve(requests_r, replies_w)
        os.close(requests_r)
        os.close(replies_w)

    def sample(self, *_):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        os.write(self._requests, b"k")
        reply = os.read(self._replies, _REPLY.size)
        self.samples.append(_REPLY.unpack(reply)[0])
        self.cpu_s += time.process_time() - cpu0
        self.wall_s += time.perf_counter() - wall0

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def kernel_s(self) -> float:
        """Mean CPU time of one kernel run; samples once more if none ran."""
        if not self.samples:
            self.sample()
        return statistics.fmean(self.samples)

    def close(self):
        os.close(self._requests)
        os.close(self._replies)
        os.waitpid(self.pid, 0)
