"""Machine-speed reference that takes host drift out of the reported times.

The host this benchmark was defined on (Intel Xeon, 2 vCPUs, shared)
changes speed by up to a third within minutes, for every process alike and
invisibly to the guest: no steal time is reported and CPU time moves with
wall time.  Ten 35-second `verify` runs then spread by 0.19 (quartile
distance over median) in their raw median verify time.

While a workload runs, a SIGALRM handler times a fixed pure-Python
big-integer loop every INTERVAL_S.  The loop does field inversions and Fp2
multiplications, the pure backend's main costs, without calling into the
package, so no change to the package can change it.  The mean of its
times, sampled evenly over the seconds the workload ran, measures how slow
the host was over those seconds.  Dividing by it brought the spread of ten
`verify` runs from 0.19 to 0.07 for the verify time and from 0.12 to 0.02
for the throughput.  The median of the loop's times tracked worse: it
ignores the short stalls that long workload items pay.

Reported times are therefore given at reference speed: multiplied by
``REFERENCE_MS`` over the mean loop time of the same run.  The handler's
own time is taken out of every timing through :meth:`Speed.now`; raw
wall-clock values are printed beside the scaled ones and saved with them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# A typical mean loop time on the defining host, so scaled times read as
# milliseconds on that host at a typical speed.
REFERENCE_MS = 5.0
INTERVAL_S = 0.1
MIN_SAMPLES = 3
# BLS12-381 base-field modulus.
_MODULUS = int(
    "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624"
    "1eabfffeb153ffffb9feffffffffaaab", 16)


def _f2_mul(a, b):
    t0, t1 = a[0] * b[0], a[1] * b[1]
    return ((t0 - t1) % _MODULUS, ((a[0] + a[1]) * (b[0] + b[1]) - t0 - t1) % _MODULUS)


def reference_loop() -> tuple:
    x = (0x1234567890ABCDEF ** 6 % _MODULUS, 0xFEDCBA0987654321 ** 6 % _MODULUS)
    for _ in range(64):
        inv = pow(x[0] * x[0] + x[1] * x[1], -1, _MODULUS)
        y = (x[0] * inv % _MODULUS, -x[1] * inv % _MODULUS)
        for _ in range(4):
            y = _f2_mul(y, x)
        x = (y[0] + 3, y[1] + 5)
    return x


class Speed:
    """Reference-loop samples of one run; ``factor`` scales its times.

    As a context manager it samples every INTERVAL_S of wall time from a
    SIGALRM handler, which runs in the main thread between bytecodes.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def now(self) -> float:
        """``perf_counter`` minus the time spent sampling: the clock workloads are timed by."""
        return time.perf_counter() - self.spent

    def _time_loop(self, *_signal) -> None:
        # a garbage collection of the workload's heap must not count as host slowness
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._time_loop)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self._time_loop()

    @property
    def reference_ms(self) -> float:
        return statistics.fmean(self.samples) * 1e3

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        return REFERENCE_MS / self.reference_ms
