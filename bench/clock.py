"""Timing that stays steady while the machine's speed drifts.

On shared hardware a core's speed changes by up to half within seconds as
other tenants load its sibling; CPU time follows wall time, so neither is
steady from run to run.  ``Clock.timed`` therefore samples the speed while the
timed call runs: a fixed kernel of field-like small-array arithmetic is
timed right before and after the call and, through an interval timer,
every ``INTERVAL`` seconds during it.  The call's wall time, less the
sampling, is rescaled to the speed at which the kernel takes ``REF_S``:

    seconds = work * speed,    speed = mean(REF_S / k_i)

For a speed that is constant between samples this is the time the call
would take at the reference speed.  ``REF_S`` is the kernel's time on an
uncontended core of the machine the reference figures in README.md come
from, so there the result reads as wall seconds.

The kernel runs in the timed process, so whatever slows the whole process
slows it too and is divided out with the machine's speed: a thread the
program starts that holds the GIL, cache or TLB pressure from a larger
working set, allocator or garbage-collector work.  ``speed`` is returned
with every timing so that a shift in it between two sets of runs shows.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

INTERVAL = 0.1
REF_S = 1.5e-3

_L = np.array([1.0, -1.0], dtype=complex)
_Y0 = np.array([0.3 + 0.1j, -0.2 + 0.4j])


def _kernel():
    y = _Y0
    for i in range(200):
        z = 1.0 / complex(7.0 + i, 1.0)
        y = -_L * y + z * (0.5 * y) + 0.01 * y * y
        y = y / max(1.0, float(np.max(np.abs(y))))
    return y


class Timing(NamedTuple):
    result: object
    seconds: float  # work at the reference speed
    wall: float  # wall seconds less sampling
    speed: float  # mean of REF_S / kernel time over the samples


class Clock:
    """Times calls at the reference speed; owns the SIGALRM handler."""

    def __init__(self):
        self._samples: list[float] = []
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, *_):
        t0 = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - t0)

    def timed(self, fn, *args) -> Timing:
        self._samples = samples = []
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - t0
        work = wall - sum(samples[1:])
        self._probe()
        speed = statistics.fmean(REF_S / k for k in samples)
        return Timing(result, work * speed, work, speed)
