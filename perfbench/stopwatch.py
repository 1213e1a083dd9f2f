"""Timing samples scaled by the host's current speed.

On a shared 2-vCPU virtual machine (Intel Xeon) the same code was measured
running up to ~1.8x slower for seconds to minutes at a time, as other
tenants loaded the host. A fixed calibration kernel is therefore timed right
before and right after each sample, and the sample is scaled by how fast the
kernel ran:

    calibrated = raw * KERNEL_REF_S / mean(kernel before, kernel after)

Two kernels, because contention slows different work differently: an
integer loop for in-process samples, and starting a bare interpreter for
samples that are whole processes (the CLI commands, set-up). Neither kernel
touches the package, so a change to the package moves calibrated and raw
times alike. KERNEL_REF_S is each kernel's time on that machine when
undisturbed, so there calibrated ~= raw. Raw values are kept beside the
calibrated ones in the results file.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time

LOOP_ITERS = 100_000
KERNEL_REF_S = {"loop": 0.0082, "process": 0.036}


def _loop_once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERS):
        acc += i * i % 7
    return time.perf_counter() - start


def _process_once() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def kernel_time(kernel: str) -> float:
    """Best of three runs of the named kernel, in seconds."""
    once = _loop_once if kernel == "loop" else _process_once
    return min(once(), once(), once())


class Stopwatch:
    """Times the named samples of one rep, each calibrated by the kernel around it."""

    def __init__(self, kernel: str = "loop", calibrate: bool = True):
        self.kernel = kernel
        self.calibrate = calibrate
        self.samples: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.kernel_times = [kernel_time(kernel)] if calibrate else []

    @contextlib.contextmanager
    def sample(self, name: str, work: float | None = None):
        """Record seconds, or work per second when work is given."""
        start = time.perf_counter()
        yield
        self.record(name, time.perf_counter() - start, work)

    def record(self, name: str, raw: float, work: float | None = None):
        """Record a sample timed by the caller, once nothing else of ours is running."""
        seconds = raw
        if self.calibrate:
            self.kernel_times.append(kernel_time(self.kernel))
            before, after = self.kernel_times[-2:]
            seconds = raw * KERNEL_REF_S[self.kernel] / (0.5 * (before + after))
        self.raw[name] = raw if work is None else work / raw
        self.samples[name] = seconds if work is None else work / seconds
