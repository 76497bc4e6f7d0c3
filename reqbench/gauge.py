"""Machine-speed gauge for the time metrics.

The benchmark runs on shared virtual machines whose speed swings by 40%
and more within minutes, with nothing else running inside the machine:
a fixed Python loop timed alone drifted that much, and so did every
request latency.  Those swings are larger than any bound a time metric
could carry, so each time is reported at a fixed reference speed::

    reported = measured * REFERENCE_MS / reading

where ``reading`` is the thread CPU time of a fixed piece of interpreter
work (tuple hashing, dict inserts and lookups, a sort), taken in the
client thread between requests.  The gauge uses only the standard
library, pauses the garbage collector, reports the best of three
repeats and counts thread CPU time, so neither the heap of the program
under test nor its threads holding the interpreter lock can change a
reading; only the speed of the machine can.  Where a hypervisor reports
steal time, thread CPU time leaves it out and the gauge misses that
part of a slowdown; the machine the benchmark was tuned on reports
none.
"""

from __future__ import annotations

import gc
import time

#: Gauge reading (ms) of the machine the benchmark was tuned on, in its
#: fast periods; reported times are scaled to this speed.
REFERENCE_MS = 1.2
#: Repeats per reading; the reading is the fastest.
REPEATS = 3


def _work() -> int:
    table = {}
    items = []
    for i in range(1500):
        key = (i % 97, str(i), i * 7)
        table[key] = [i, key]
        items.append((hash(key) & 1023, key))
    items.sort()
    return sum(len(table[key]) for _, key in items[:500])


def reading() -> float:
    """Milliseconds of thread CPU time the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.thread_time()
            _work()
            best = min(best, time.thread_time() - start)
    finally:
        if enabled:
            gc.enable()
    return 1000.0 * best


def scale(reading_ms: float) -> float:
    """Factor that takes a time measured at ``reading_ms`` to the
    reference speed."""
    return REFERENCE_MS / reading_ms
