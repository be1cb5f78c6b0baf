"""A fixed reference kernel, timed right after each measured round.

On a shared two-core cloud VM, CPU speed moves by 15-80 % in spells that
last from seconds to many minutes (frequency changes and contention from
other tenants), and a spell can cover a whole run. A fixed piece of work
timed right after each round (a few tenths of a second) sees the same
spell, so an operation's time divided by the reference time beside it
cancels most of the host's CPU speed. It does not cancel changes in the
cost of file writes or process wake-ups, which the streams also pay.

The kernel is the benchmark's own code and never calls thermotrack: a
change to the library cannot move it. It mixes interpreted Python (box
overlaps in tuples, like the library's scalar paths) with small numpy calls
(a sort and a matrix product), about two parts to one, and takes about
0.3 ms.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PERF = time.perf_counter

# Reference time spent after each round, as a share of the round's time.
SHARE = 0.1

_BOXES = [(i % 97, i % 89, i % 97 + 13, i % 89 + 17) for i in range(20)]
_BOXES_B = _BOXES[:12]
_ARRAY = np.random.default_rng(0).random((96, 96))


def kernel() -> float:
    acc = 0.0
    for ax1, ay1, ax2, ay2 in _BOXES:
        for bx1, by1, bx2, by2 in _BOXES_B:
            w = min(ax2, bx2) - max(ax1, bx1)
            h = min(ay2, by2) - max(ay1, by1)
            if w > 0 and h > 0:
                acc += w * h
    return acc + float(np.sort(_ARRAY, axis=None)[::97].sum() + (_ARRAY @ _ARRAY).trace())


def after(busy_s: float) -> float:
    """Call the kernel for about ``SHARE`` of ``busy_s`` seconds, at least
    once; return the median time of one call in seconds (a median, so a
    burst of contention inside the window does not tilt it)."""
    times = []
    start = PERF()
    while True:
        begin = PERF()
        kernel()
        end = PERF()
        times.append(end - begin)
        if end - start >= SHARE * busy_s:
            return statistics.median(times)
