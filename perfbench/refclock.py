"""A clock in reference-speed seconds, for virtual machines that share their cores.

The machines this benchmark runs on lose time in two ways that have nothing
to do with the program.  The hypervisor takes the CPU away for milliseconds
at a time (steal time), which is most of the tail of a short query.  And the
speed of interpreted code drifts by up to a factor of 1.6 over a few seconds
as neighbours come and go, the same for every part of the program.  Raw run
times then differ between runs far more than the changes the benchmark
should catch.

So spans are measured in the CPU time of the measuring thread, which steal
time does not advance; for this single-threaded program, which does no I/O
while it is timed, that is the wall time of an undisturbed machine.  And
every ``SAMPLE_EVERY_S`` of CPU time a SIGPROF handler runs a fixed
pure-Python kernel (no library code) and records its speed,
REFERENCE_KERNEL_S / kernel time.  A span is reported in reference seconds:
its CPU time, less the handler's own, integrated against the running median
of the speeds sampled around it.  On the machine the benchmark was defined
on (2 vCPUs at 2.1 GHz, Python 3.11) the kernel takes about
REFERENCE_KERNEL_S, so a reference second is about a CPU second there.  The
CPU seconds go to the sidecar too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_KERNEL_S = 0.005
SAMPLE_EVERY_S = 0.25
KERNEL_STEPS = 25000
SMOOTH = 9


class _Dual:
    __slots__ = ("val", "dot")

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def muladd(self, x):
        """self = self * x + x, in place."""
        v = self.val
        self.val = v * x.val + x.val
        self.dot = v * x.dot + self.dot * x.val + x.dot


def kernel():
    """Dual-number arithmetic like the library's jets; fixed, never to be tuned.

    It works in place: allocating would move the garbage collector's counts
    and the caches of the measured code it interrupts.
    """
    x = _Dual(0.999, 1.0)
    acc = _Dual(0.0, 0.0)
    for _ in range(KERNEL_STEPS):
        acc.muladd(x)
    return acc


class RefClock:
    """Samples the kernel in the background of the measured code.

    ``now()`` is ``time.thread_time()`` minus the time spent in the handler:
    spans measured with it leave the sampling out, and ``ref_seconds`` turns
    such a span into reference seconds.
    """

    def __init__(self):
        self.samples = []   # (now() when the kernel started, reference seconds per CPU second)
        self._speeds, self._bounds = [], []
        self.paused = 0.0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        at = self.now()
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        self.samples.append((at, REFERENCE_KERNEL_S / dt))
        self.paused += time.thread_time() - t0
        self._busy = False

    def now(self) -> float:
        return time.thread_time() - self.paused

    def ref_seconds(self, start: float, end: float) -> float:
        """The span [start, end] of ``now()`` in reference seconds.

        The speed at each sample is the median of the SMOOTH samples around
        it: one kernel run is noisier than the drift it tracks.  That speed
        holds from halfway after the previous sample to halfway before the
        next one, and the span is integrated against it.
        """
        if not self.samples:
            raise RuntimeError("no kernel samples were taken")
        if len(self._speeds) != len(self.samples):
            raw = [s for _, s in self.samples]
            half = SMOOTH // 2
            self._speeds = [statistics.median(raw[max(i - half, 0):i + half + 1])
                            for i in range(len(raw))]
            times = [t for t, _ in self.samples]
            self._bounds = [(a + b) / 2 for a, b in zip(times, times[1:])]
        bounds, speeds = self._bounds, self._speeds
        i = bisect.bisect_right(bounds, start)
        total, pos = 0.0, start
        while True:
            step = min(bounds[i], end) if i < len(bounds) else end
            total += (step - pos) * speeds[i]
            if step >= end:
                return total
            pos, i = step, i + 1


def calibrated_speed(repeats: int = 5) -> float:
    """Reference seconds per CPU second, from kernel runs made right now."""
    times = []
    for _ in range(repeats):
        t0 = time.thread_time()
        kernel()
        times.append(time.thread_time() - t0)
    return REFERENCE_KERNEL_S / statistics.median(times)
