"""Host-speed normalisation of the benchmark's timings.

The 2-vCPU VMs this benchmark runs on change speed by up to 2x within
seconds, because they share their cores with other machines.  A fixed
pure-Python loop, the reference kernel, slows down with the jobs.  So
the benchmark runs the kernel every ``PERIOD_S`` of wall time inside
every process of a measured job, records how long it took, and
rescales the job's time to the host speed at which the kernel takes
``NOMINAL_S``::

    wall_s = raw_wall_s * (1 - kernel_s / PERIOD_S)
             * (NOMINAL_S / kernel_s) ** EXPONENT

``kernel_s`` is the kernel's mean duration during the job, in the
slowest of the job's processes.  The factor ``1 - kernel_s / PERIOD_S``
takes the kernel's own time back out.  ``EXPONENT`` is above 1 because
the jobs slow down somewhat more than the kernel: when the kernel took
1.5 times as long, a job took about 1.6 times as long.  In three rounds
of ten seeds on that VM, the interquartile range of fig1-startup's raw
time was 15% to 28% of its median; rescaled, it was 1.8% to 4.3%.

The kernel measures how fast a CPU runs, not how much of it a job gets:
a process that competes for a CPU inside the VM slows a job more than
the rescaling corrects.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
import signal
import struct
import time
from typing import Dict, Iterator, Optional

#: Wall time between two runs of the kernel in one process.
PERIOD_S = 0.05
#: The kernel's duration on the 2-vCPU Intel Xeon VM (Python 3.11) the
#: benchmark was sized on; normalised times are at that speed.
NOMINAL_S = 1.4e-3
#: How much faster than the kernel's time a job's time grows when the
#: host slows down, in logarithms.  A least-squares fit over about 550
#: jobs of the four workloads, in calm and slow phases of that VM, gave
#: 1.13 to 1.20 per workload, and 1.13 to 1.16 for set-up probes.
EXPONENT = 1.2
#: Processes one measurement can follow: the job and its pool workers.
SLOTS = 64
_SLOT = struct.Struct("dd")  # (kernel seconds, kernel runs)


def kernel() -> int:
    """The reference kernel: a fixed loop of integer arithmetic."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def rescale(raw_s: float, kernel_s: float) -> float:
    """A span timed under :func:`interleaved`, at the nominal host
    speed; see the module docstring."""
    return (raw_s * (1.0 - kernel_s / PERIOD_S)
            * (NOMINAL_S / kernel_s) ** EXPONENT)


class _Meter:
    """Kernel time of this process and of every process it forks.

    Each process adds its runs to its own slot of a shared anonymous
    mapping, which the forked workers inherit.  Once the process forks
    it stops running the kernel itself and leaves the CPUs to its
    workers, which start their own timers.
    """

    def __init__(self) -> None:
        self.shared = mmap.mmap(-1, SLOTS * _SLOT.size)
        self.slot = 0
        self.next_slot = 1

    def fire(self, signum, frame) -> None:
        if self.slot >= SLOTS:
            return
        started = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - started
        offset = self.slot * _SLOT.size
        total_s, runs = _SLOT.unpack_from(self.shared, offset)
        _SLOT.pack_into(self.shared, offset, total_s + elapsed, runs + 1)

    def kernel_s(self) -> float:
        """Mean kernel duration in the slowest process.

        A pool of workers takes as long as its slowest worker (the pool
        deals the cells out evenly), so the slowest process sets the
        speed that counts.  A process with under a tenth of the runs of
        the busiest one, such as a parent that forked its workers at
        once, ran the kernel too rarely to judge by.
        """
        slots = [_SLOT.unpack_from(self.shared, i * _SLOT.size)
                 for i in range(SLOTS)]
        most = max(runs for _, runs in slots)
        return max(total_s / runs for total_s, runs in slots
                   if runs >= most / 10)


#: The meter of the measurement in progress.  Fork hooks are global to
#: the process and cannot be removed, so they find it here.
_active: Optional[_Meter] = None


def _before_fork() -> None:
    if _active is not None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _active.next_slot += 1


def _after_fork_in_child() -> None:
    if _active is not None:
        _active.slot = _active.next_slot - 1
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


@functools.lru_cache(maxsize=None)
def _register_fork_hooks() -> None:
    os.register_at_fork(before=_before_fork,
                        after_in_child=_after_fork_in_child)


@contextlib.contextmanager
def interleaved() -> Iterator[Dict[str, float]]:
    """Run the kernel every ``PERIOD_S`` in this process and its forks.

    Yields a dict whose ``kernel_s`` (see :meth:`_Meter.kernel_s`) is
    set on exit.  One kernel run before the timed span guarantees a
    value even for a span shorter than ``PERIOD_S``.
    """
    global _active
    _register_fork_hooks()
    meter = _Meter()
    result = {"kernel_s": 0.0}
    previous = signal.signal(signal.SIGALRM, meter.fire)
    meter.fire(signal.SIGALRM, None)
    _active = meter
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _active = None
        signal.signal(signal.SIGALRM,
                      signal.SIG_DFL if previous is None else previous)
        result["kernel_s"] = meter.kernel_s()
        meter.shared.close()
