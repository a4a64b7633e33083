"""Time intervals in seconds at the reference machine's speed.

A shared host runs the same code at very different speeds from one
moment to the next: on the 2-vCPU machine this benchmark was built on, a
fixed block of work ran either at full speed or about 1.7x slower,
switching every few milliseconds as other tenants used the sibling
hardware threads, and the raw wall time of one op varied by 1.6x across
passes.

So a `Clock` samples the host's speed while it times. `probe()` is a
fixed block of plain Python work, about 35 us at full speed, that never
calls ctplab. A timed call is bracketed by BRACKET_PROBES probes on each
side, and a SIGALRM timer runs one more probe every SAMPLE_EVERY_S
seconds during the call. The call's wall time, less the time spent in
those in-call probes, is multiplied by the mean of
REFERENCE_PROBE_S / probe time over the probes of that call. The result
is the time the call would take on the reference machine when nothing
else slows it: it moves with the program's code, not with the host's
moment. Everything stays in the one process and thread.
"""
from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
from time import perf_counter

# Seconds one probe() takes on the reference machine (2 vCPUs, Python
# 3.11.7) when nothing else slows it: the fast mode of its times there.
REFERENCE_PROBE_S = 0.000034
PROBE_STEPS = 40
SAMPLE_EVERY_S = 0.001
BRACKET_PROBES = 10


def probe() -> float:
    """Seconds a fixed block of plain Python work takes right now.

    The block mixes what ctplab spends its time on: rational arithmetic
    on ints (what a Fraction does), string hashing, dict updates and a
    heap. It allocates only two objects the garbage collector tracks, so
    it barely moves the point where the next collection falls, and the
    collector is off while it runs, so a collection the timed call has
    made due is not charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    seen, heap = {}, []
    num, den = 0, 1
    for i in range(1, PROBE_STEPS):
        a, b = i % 17 + 1, i % 13 + 2
        num, den = num * b + a * den, den * b
        common = math.gcd(num, den)
        num, den = num // common, den // common
        key = hash(str(i % 61)) ^ i % 7
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, num % 997 * 64 + i)
    while heap:
        heapq.heappop(heap)
    end = perf_counter()
    if enabled:
        gc.enable()
    return end - start


class Clock:
    """Use as a context manager; `timed` may only be called inside it."""

    def __init__(self) -> None:
        # (when it started, probe seconds, seconds the sample took)
        self.samples: list[tuple[float, float, float]] = []
        self._timing = False
        self._busy = False
        self._last: list[float] = []

    def __enter__(self) -> Clock:
        probe()  # warm up
        self._last = self._bracket()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _sample(self, signum, frame) -> None:
        if self._timing and not self._busy:
            self._busy = True
            start = perf_counter()
            took = probe()
            self.samples.append((start, took, perf_counter() - start))
            self._busy = False

    @staticmethod
    def _bracket() -> list[float]:
        return [probe() for _ in range(BRACKET_PROBES)]

    def timed(self, fn):
        """Call fn(); return (result, exception, raw s, reference s).

        An exception fn raises is returned, not raised. Raw seconds
        exclude the probes taken during the call.
        """
        self.samples = []
        result = error = None
        self._timing = True
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it
            error = exc
        end = perf_counter()
        self._timing = False
        before, self._last = self._last, self._bracket()
        raw = end - start - sum(took for when, _, took in self.samples
                                if when < end)
        probes = [*before, *(p for _, p, _ in self.samples), *self._last]
        factor = statistics.fmean(REFERENCE_PROBE_S / p for p in probes)
        return result, error, raw, raw * factor
