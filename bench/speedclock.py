"""Host-speed-normalised time.

On a small shared cloud host the speed of one vCPU changes by up to half
within seconds, as other tenants load the physical core and its caches;
the benchmark process itself is never off the CPU while this happens.
Wall times of the same code then differ by more than any useful bound
from one run to the next.

``SpeedClock`` measures that speed as the run goes: while a pass runs, a
fixed calibration kernel (complex numpy products, kron and partial
traces driven from Python, then float formatting: the mix of interpreter,
BLAS and formatting work of the library and its CLI) is timed from a ``SIGALRM`` handler every
``interval`` seconds of wall time.  ``normalizer`` then maps a
``time.perf_counter()`` stamp to a normalised time in which the time the
kernels took is left out and every stretch between two kernels is scaled
by ``CAL_REF_S`` over the local kernel cost (the median of three
neighbouring samples, so that one interrupted kernel does not count).
A normalised duration is thus the duration on a host where one kernel
takes ``CAL_REF_S``; it does not change when the library changes.

The benchmark pins itself to one CPU so that the kernel and the work it
calibrates run on the same vCPU.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# A typical kernel cost on a 2-vCPU cloud host; it sets the scale only.
CAL_REF_S = 5e-3
INTERVAL_S = 0.1

_rng = np.random.default_rng(20061)
_MATS = {
    d: _rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d))
    for d in (2, 4, 8, 16, 32, 64, 128)
}


_ROWS = [(i * 1.234567e-3, i * 7.654321e-2, 0.3, 0.6, 2, 0, math.sin(i)) for i in range(150)]


def kernel() -> float:
    """The fixed calibration work; returns a value so none of it is skipped.

    Numpy products from 2x2 to 128x128 driven from Python, as in the
    library's evaluations, then ``.12g`` formatting of CSV rows, as in
    its figure export; the two slow down differently on a busy host.
    """
    acc = 0.0
    pauli = _MATS[2]
    for d in (2, 4, 8, 16, 32, 64):
        x = _MATS[d]
        for _ in range(3):
            y = np.kron(pauli, x)
            z = y @ y.conj().T
            acc += float(np.trace(z).real)
            acc += abs(z.reshape(2, d, 2, d).trace(axis1=0, axis2=2)[0, 0])
    big = _MATS[128]
    acc += float((big @ big).real.sum())
    text = "\n".join(",".join(f"{v:.12g}" for v in row) for row in _ROWS)
    return acc + len(text)


def kernel_cost() -> float:
    """Median seconds of three back-to-back kernels."""
    costs = []
    for _ in range(3):
        t = time.perf_counter()
        kernel()
        costs.append(time.perf_counter() - t)
    return statistics.median(costs)


class SpeedClock:
    """Kernel samples taken while running; see the module docstring."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.begin: list[float] = []  # perf_counter at each kernel's start
        self.end: list[float] = []  # ... and end
        self._busy = False
        self._previous_handler = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.begin.append(t0)
            self.end.append(t1)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Take a sample now and then one every ``interval`` seconds."""
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop the timer and take a closing sample."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self.sample()

    def samples(self) -> int:
        return len(self.begin)

    def normalizer(self):
        """A function from perf_counter stamps (scalar or array) to
        normalised seconds, built from every sample taken so far.

        Only differences of its values mean something, and only between
        stamps of one started-and-stopped stretch.
        """
        begin = np.asarray(self.begin)
        end = np.asarray(self.end)
        cost = end - begin
        if len(cost) >= 3:
            padded = np.concatenate(([cost[0]], cost, [cost[-1]]))
            cost = np.median(np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0)
        # stretch k runs from end[k] to begin[k + 1]; the last one is open
        gap = np.append(begin[1:] - end[:-1], np.inf)
        local = np.append((cost[:-1] + cost[1:]) / 2.0, cost[-1])
        factor = CAL_REF_S / local
        cumulative = np.concatenate(([0.0], np.cumsum(gap[:-1] * factor[:-1])))

        def normalised(stamp):
            t = np.asarray(stamp, dtype=float)
            k = np.clip(np.searchsorted(end, t, side="right") - 1, 0, None)
            within = np.minimum(t - end[k], gap[k])
            return cumulative[k] + within * factor[k]

        return normalised
