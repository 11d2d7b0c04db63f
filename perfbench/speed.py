"""Op latencies scaled to a fixed machine speed.

The baseline box is a 2-vCPU virtual machine on a shared host, and its vCPU
speed swings by up to 2x within seconds while process CPU time stays at 99%
of wall time; no clock excludes that.  So a fixed pure-Python kernel is
timed right before and after every op, and every ``INTERVAL_S`` during it
from a SIGALRM timer (no threads); ``child.py`` also samples it around
set-up.  An op's scaled latency is its wall latency, less the in-op
samples, times ``REFERENCE_SAMPLE_S`` over the mean sample duration.  The
kernel never touches the package, so a change to the package cannot move it,
and the garbage collector is off while it runs, so a collection that the
op's garbage triggers is charged to the op, not to the sample.  Against
samples around each op only, the in-op samples narrowed the six-seed spread
of ``ops_per_s`` and ``op_p90_s`` on ``dirichlet-cli`` and ``sphere-d3``
(figures in ``baseline.json``).
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

# Median kernel duration on the baseline box: scaled times are seconds at
# that speed.
REFERENCE_SAMPLE_S = 0.0035
INTERVAL_S = 0.2


def sample(iterations: int = 3000) -> float:
    """Seconds for a fixed kernel of calls, big-int arithmetic, gcd and dict
    traffic, the mix of the package's Fraction code."""
    enabled = gc.isenabled()
    gc.disable()  # a collection the op's garbage triggers must not land here
    start = time.perf_counter()
    table: dict = {}
    num, den = 3, 7
    for i in range(iterations):
        num, den = num * 7 + den * (i % 5 + 1), den * 3 + i
        common = math.gcd(num, den)
        num, den = num // common or 1, den // common or 1
        if num > 10**30:
            num, den = num % 10**9 or 1, den % (10**9 + 7) or 1
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + 1
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Meter:
    """Times ops one after another, sampling speed around and inside each."""

    def __init__(self):
        self._last = sample()
        self._ticks: list = []  # (start, duration) of samples taken by the timer
        self.sampled_s = 0.0    # in-op sample time, left out of every latency

    def _tick(self, signum, frame) -> None:
        self._ticks.append((time.perf_counter(), sample()))

    def time(self, call) -> tuple:
        """(result or the exception it raised, wall latency, scaled latency)."""
        before, self._ticks = self._last, []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        begin = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the caller counts it as a failed op
            result = exc
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        self._last = sample()
        inside = [duration for start, duration in self._ticks if start < end]
        self.sampled_s += sum(inside)
        latency = end - begin - sum(inside)
        mean = statistics.fmean([before, *inside, self._last])
        return result, latency, latency * REFERENCE_SAMPLE_S / mean
