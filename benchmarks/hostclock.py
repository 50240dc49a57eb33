"""A clock that reads seconds at the host's unloaded speed.

The benchmark runs on a few cores of a shared host. The time of one fixed
piece of work swings by up to 2x within seconds as the neighbours' load
comes and goes, and CPU time swings as much as wall time, so neither clock
separates the program's own cost from the host's load. The VM exposes no
hardware counters to count instructions instead.

``HostClock`` therefore samples the host's speed while the program runs:
a ``SIGALRM`` timer fires every ``PERIOD_S`` and the handler times
``reference()``, a fixed mix of Python float arithmetic and small numpy
products like the package's own. Between two samples the clock runs at
wall-clock rate times ``NOMINAL_S / t_ref``, where ``t_ref`` is the last
sample, and the handler's own time is left out. An interval on this clock
is the time it would have taken on a host where ``reference()`` takes
``NOMINAL_S``, about the fastest this shared host runs it.

Only the main thread is sampled, and every program step still runs in
between, so a slower program reads slower on this clock by the same share
as on a wall clock.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
NOMINAL_S = 0.5e-3
_FLOAT_STEPS = 2500
_DOT_STEPS = 100
_VEC = np.linspace(0.1, 1.0, 16)


def reference() -> float:
    """Fixed work of about NOMINAL_S on an unloaded host."""
    x = 0.0
    for i in range(_FLOAT_STEPS):
        x += math.log(1.0 + i) * 0.5
    for i in range(_DOT_STEPS):
        x += float(np.dot(_VEC, _VEC * (1.0 + i)))
    return x


class HostClock:
    """Callable clock in seconds at the host's unloaded speed.

    Use as a context manager: the timer runs only inside the ``with``
    block, and the previous ``SIGALRM`` handler is put back on every way
    out of it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._paused = 0.0  # wall seconds spent in the handler
        self._t_last = 0.0  # wall time, less _paused, of the last sample
        self._v_last = 0.0  # this clock's reading at the last sample
        self._rate = 1.0
        self._sampled = 0  # handler runs completed
        self._in_handler = False
        self._previous = None

    def __call__(self) -> float:
        # The handler may run between any two bytecodes of this expression;
        # read again if it did, so no reading mixes two samples.
        while True:
            seen = self._sampled
            value = self._v_last + (time.perf_counter() - self._paused - self._t_last) * self._rate
            if seen == self._sampled:
                return value

    def _sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        self._rate = NOMINAL_S / spent

    def _on_alarm(self, signum, frame) -> None:
        if self._in_handler:
            return
        self._in_handler = True
        entered = time.perf_counter()
        now = entered - self._paused
        self._v_last += (now - self._t_last) * self._rate
        self._t_last = now
        try:
            self._sample()
        finally:
            self._paused += time.perf_counter() - entered
            self._sampled += 1
            self._in_handler = False

    def __enter__(self) -> HostClock:
        self._sample()
        self._t_last = time.perf_counter() - self._paused
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Median host slowdown over the samples: t_ref / NOMINAL_S."""
        return statistics.median(self.samples) / NOMINAL_S
