"""Wall times rescaled by the CPU's measured speed at the time they were taken.

The vCPUs of the machine this benchmark was built on run at two speeds: for
stretches of a few seconds to a minute a vCPU does about 1.5 to 2 times
less work per second, with no steal time reported to the guest. Raw wall
times of the same job then spread by 30 % or more between runs. A short
fixed kernel, timed on the same vCPU as the work, measures the speed of the
moment; each interval of work is weighted by it:

    reference seconds = sum over intervals of dt * REFERENCE_KERNEL_S / kernel_s

``REFERENCE_KERNEL_S`` is the kernel's time on that machine when its vCPU
runs at full speed, so reference seconds read as full-speed wall seconds.
The caller pins itself and its children to one CPU so that the kernel and
the work share it.
"""

from __future__ import annotations

import subprocess
import time

import numpy as np

REFERENCE_KERNEL_S = 0.5e-3
# How often a running subprocess is interrupted to time the kernel.
SAMPLE_INTERVAL_S = 0.05

_MATRICES = np.random.default_rng(0).normal(size=(16, 4, 4))
_MATRICES = _MATRICES + _MATRICES.transpose(0, 2, 1)


def kernel_seconds() -> float:
    """Time one run of a small interpreter-plus-LAPACK mix, like the program's own."""
    start = time.perf_counter()
    s = 0.0
    for _ in range(10):
        s += float(np.linalg.eigvalsh(_MATRICES)[0, 0])
        for j in range(300):
            s += j * 0.5
    return time.perf_counter() - start


def rescale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Reference seconds of an interval bracketed by two kernel timings."""
    return seconds * REFERENCE_KERNEL_S * (1 / kernel_before + 1 / kernel_after) / 2


class Meter:
    """Sums timed in-process intervals, each bracketed by a kernel timing on either side."""

    def __init__(self):
        self.kernel = kernel_seconds()
        self.intervals = 0
        self.wall = 0.0
        self.reference = 0.0

    def add(self, seconds: float) -> None:
        """Count an interval that ended just now; the kernel runs before the next one starts."""
        kernel = kernel_seconds()
        self.intervals += 1
        self.wall += seconds
        self.reference += rescale(seconds, self.kernel, kernel)
        self.kernel = kernel


def run(cmd: list[str], timeout: float, **popen) -> tuple[int | None, float, float]:
    """Run ``cmd`` to completion; return (exit code or None on timeout, wall s, reference s).

    The kernel runs in this process every ``SAMPLE_INTERVAL_S`` while the
    child runs; its own time is left out of both durations. Give ``stdout``
    a file, not a pipe, since nothing reads a pipe until the child ends.
    """
    kernel = kernel_seconds()
    start = last = time.perf_counter()
    proc = subprocess.Popen(cmd, **popen)
    sampling = reference = 0.0
    while True:
        try:
            proc.wait(timeout=SAMPLE_INTERVAL_S)
            break
        except subprocess.TimeoutExpired:
            pass
        now = time.perf_counter()
        if now - start > timeout:
            proc.kill()
            proc.wait()
            return None, now - start - sampling, 0.0
        sample = kernel_seconds()
        reference += rescale(now - last, kernel, sample)
        kernel = sample
        last = time.perf_counter()
        sampling += last - now
    end = time.perf_counter()
    reference += rescale(end - last, kernel, kernel_seconds())
    return proc.returncode, end - start - sampling, reference
