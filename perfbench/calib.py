"""A fixed reference loop, timed all through a round to follow the machine's speed.

The shared machine this benchmark was tuned on changes speed by tens of
percent for seconds at a time, and every kind of code slows down together
(see README).  While a round runs, a SIGALRM handler times the reference
loop every PERIOD_S seconds in the measured process itself.  An operation
that ran from t0 to t1 is reported as its time minus the handler's time,
times REF_S times the mean of 1/r over the loop times r taken from
t0 - WINDOW_S to t1 + WINDOW_S: the time it would take on a machine where
the loop always takes REF_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_S = 0.0029  # the loop's duration on that machine in its fast phases
PERIOD_S = 0.1
WINDOW_S = 0.25
_A = np.arange(4096, dtype=np.uint64)


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work,
    the two kinds of work the package does."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    x = _A
    for _ in range(150):
        x = (x ^ (x >> np.uint64(1))) + _A[::-1]
    return time.perf_counter() - t0


class Sampler:
    """Times the reference loop at the start, every PERIOD_S seconds, and at
    the end of a with-block; samples are (start, end, loop seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        r = reference_loop()
        self.samples.append((start, time.perf_counter(), r))

    def __enter__(self) -> "Sampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Time of an operation that ran from t0 to t1, on the reference machine."""
        inside = sum(max(0.0, min(end, t1) - max(start, t0)) for start, end, _ in self.samples)
        near = [r for start, _, r in self.samples if t0 - WINDOW_S <= start <= t1 + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda x: abs(x[0] - t0))[2]]
        return (t1 - t0 - inside) * REF_S * sum(1 / r for r in near) / len(near)
