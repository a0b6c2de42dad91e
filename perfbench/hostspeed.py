"""Host-speed meter: times reported at a fixed reference host speed.

On shared VMs the speed of one core drifts by 2x within seconds and by 15 %
between 10-second windows, for pure-Python work; CPU time drifts with it.
The meter runs a fixed calibration kernel from a SIGALRM handler every
`period` seconds throughout a run and records each kernel's duration.

- `now()` is a clock that stops while the kernel runs, so no timed region
  includes calibration work.
- `factor(t0, t1)` is the mean kernel duration over the interval, divided by
  the kernel's duration on the reference host: 1.0 means reference speed,
  1.3 means 30 % slower.  A measured duration divided by its interval's
  factor is the duration at reference speed.

The kernel is plain dict and int arithmetic, the operations that dominate the
package's scalar layer, and uses nothing from the package.
"""
from __future__ import annotations

import bisect
import signal
import time

# Mean kernel duration on the reference host (2-core x86-64 VM, quiet).
REF_KERNEL_S = 0.0005
MIN_SAMPLES = 10


def kernel():
    a = {k: 3 * k + 1 for k in range(-8, 9)}
    b = {k: 7 - k for k in range(-6, 7)}
    for _ in range(10):
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


class HostMeter:
    def __init__(self, period: float = 0.025):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (now() at start, kernel seconds)
        self._spent = 0.0
        self._busy = False
        self._old = None
        self._times: list[float] = []

    def now(self) -> float:
        return time.perf_counter() - self._spent

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives while one runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t0 - self._spent, t1 - t0))
        self._spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, t0: float, t1: float) -> float:
        """Mean kernel duration over [t0, t1] relative to the reference; the
        MIN_SAMPLES samples nearest the interval when it holds fewer."""
        ts = self._times
        if len(ts) != len(self.samples):
            ts[:] = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(ts, t0), bisect.bisect_right(ts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(ts)):
            if hi == len(ts) or (lo > 0 and t0 - ts[lo - 1] <= ts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        durations = [d for _, d in self.samples[lo:hi]]
        return sum(durations) / len(durations) / REF_KERNEL_S
