"""Machine-speed calibration for timings on a shared, noisy host.

On a small virtual machine the host's other tenants slow every kind of
code, by up to +-20% over windows of 5-15 seconds.  The benchmark
therefore times a fixed reference computation between operations, and
every second during long calls, and reports each stretch of program time
as a multiple of the reference times around it (unit ``cal``), beside the
raw seconds.  The references use only numpy and the interpreter, never
hartogs, and write only into preallocated memory, so a change to the
program does not change the work they do.

Contention hits memory-bound and interpreter-bound code differently, so
each workload is calibrated with the reference closest to its own work:

    stream    one pass over 64 MB of complex data, like the chunks of the
              tensor quadrature (verify-battery, oracle-callable)
    interp    a pure-Python complex recurrence, like the 2F1 series loop
              behind the CLI kernel path (kernel-stream)

Measured on a 2-vCPU virtual machine as the IQR/median, over ten seeds,
of a run's median operation time: kernel-stream 0.163 raw, 0.034 over
``interp``; oracle-callable 0.186 raw, 0.039 over ``stream``.  Within one
process, ``interp`` tracked a kernel-stream round better than ``stream``
did: 0.024 against 0.165 on ten block medians.
"""

import signal
import time

import numpy as np

PERIOD_S = 1.0  # calibration period within a long call, in untraced runs
# Preallocated, so that a calibration's time does not depend on the state
# the program left the allocator in (fresh 32 MB temporaries page-fault).
_STREAM = np.linspace(0.1, 0.9, 4_000_000) * (1.0 + 0.5j)
_STREAM_OUT = np.empty(_STREAM.shape)


def _stream():
    np.abs(_STREAM, out=_STREAM_OUT)
    np.power(_STREAM_OUT, 3, out=_STREAM_OUT)
    _STREAM_OUT.sum()


def _interp():
    term = total = 1.0 + 0.0j
    z = 0.3 + 0.4j
    for n in range(60_000):
        term *= (0.5 + n) / (1.5 + n) * z
        total += term
        if abs(term) < 1e-200:
            term = 1.0 + 0.0j


KINDS = {"stream": _stream, "interp": _interp}


def calibrate(kind):
    """Seconds taken by the reference computation of ``kind`` (~30-50 ms)."""
    t0 = time.perf_counter()
    KINDS[kind]()
    return time.perf_counter() - t0


class Clock:
    """Accumulates program time and its calibrated cost.

    ``clock(fn, *args)`` times one call into the program; ``last_s`` is its
    time.  ``mark()`` runs a calibration and charges the program time since
    the previous mark at the mean of the two calibrations around it.  With
    a ``period``, a SIGALRM timer also marks every ``period`` seconds during
    a call; the calibration's own time is not charged.  Traced runs use no
    period, so no calibration lands inside a span.
    """

    def __init__(self, kind, period=None):
        self.kind = kind
        self.period = period
        self.seconds = self.cost = self.last_s = 0.0
        self.calibrations = [calibrate(kind)]
        self._pending = 0.0
        self._t = 0.0

    def __call__(self, fn, *args, **kwargs):
        self.last_s = 0.0
        if self.period:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self._charge(time.perf_counter() - self._t)

    def _charge(self, seconds):
        self.last_s += seconds
        self._pending += seconds

    def _tick(self, signum, frame):
        self._charge(time.perf_counter() - self._t)
        self.mark()
        self._t = time.perf_counter()

    def add(self, seconds, cost):
        """Account program time timed and calibrated elsewhere."""
        self.seconds += seconds
        self.cost += cost

    def mark(self):
        cal = calibrate(self.kind)
        self.cost += self._pending / (0.5 * (self.calibrations[-1] + cal))
        self.seconds += self._pending
        self._pending = 0.0
        self.calibrations.append(cal)
