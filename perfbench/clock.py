"""Reference-speed seconds.

The machines this benchmark runs on are shared: the same pure-Python work
takes anywhere from 0.75x to 1.4x its typical time depending on the
minute, which swamps any bound a regression check could use.  The drift
is common to all CPU-bound work in the process, so every timed interval
is bracketed by a fixed pure-Python reference loop and scaled by
``REFERENCE_S / (mean of the two loop times)``.  A value is then the
interval's length at the speed the machine had when ``REFERENCE_S`` was
recorded.  Raw, unscaled times are printed next to the result.
"""

from __future__ import annotations

from time import perf_counter

#: Median time of :func:`reference_loop` on the shared 2-core x86-64 machine (Python
#: 3.11) where the first baseline was recorded.  A constant, so that
#: scaled times compare across commits; it only sets their scale.
REFERENCE_S = 0.01135

_ITERATIONS = 150_000


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    start = perf_counter()
    total = 0
    for i in range(_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def timed(fn, *args):
    """Run ``fn``; returns (result, raw seconds, factor) where ``factor``
    turns raw seconds into reference-speed seconds."""
    before = reference_loop()
    start = perf_counter()
    result = fn(*args)
    raw = perf_counter() - start
    after = reference_loop()
    return result, raw, REFERENCE_S / ((before + after) / 2)
