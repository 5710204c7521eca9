"""CPU time of this process and its children, and the host's speed.

Process CPU time leaves out the time the hypervisor steals from the
virtual CPUs. What remains still drifts with the load other tenants put on
the shared cores, by 15% between runs and more over an hour. `host_speed`
times a fixed slice of work during and right after each op; dividing the
op's CPU time by it cancels most of that drift.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time

import numpy as np


def child_pids() -> list[int]:
    """Live processes whose parent is this process."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def cpu_seconds(children) -> float:
    """CPU seconds used so far by this process and the given children."""
    total = time.process_time()
    for pid in children:
        try:
            with open(f"/proc/{pid}/schedstat") as f:
                total += int(f.read().split()[0]) / 1e9
        except OSError:
            pass
    return total


# CPU seconds `calibrate` takes on the host the benchmark was tuned on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6); rescaling by it keeps reported
# times near that host's CPU milliseconds.
CALIBRATION_REF_S = 4.0e-3


def calibrate() -> float:
    """CPU seconds of a fixed slice of interpreter and small-array work, the
    mix the benchmark's ops are made of."""
    t0 = time.thread_time()
    x = 0
    for i in range(20_000):
        x += i * i % 7
    json.loads(json.dumps([{"k": i, "v": i * 0.5} for i in range(500)]))
    a = np.arange(64.0)
    for _ in range(200):
        a = np.maximum(a * 1.0000001 - 0.5, 0.0)
    return time.thread_time() - t0


def host_speed(samples=()) -> float:
    """Mean `calibrate` time over `samples` and two new slices. The mean,
    because an op's CPU time integrates the host's speed over the op."""
    return statistics.fmean([*samples, calibrate(), calibrate()])


class MidOpSampler:
    """Runs a calibration slice every `interval` wall seconds while armed,
    so that a long op's host speed is sampled across its whole duration
    rather than only after it. A wall-clock timer, because an armed process
    CPU timer makes the kernel report process CPU time in whole ticks."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: list[float] = []
        self._busy = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self.samples.append(calibrate())
            self._busy = False

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
