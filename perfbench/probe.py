"""A fixed reference task timed after every slice, to calibrate host time.

Other tenants of a shared host slow the whole guest in phases that last
from under a second to minutes, and the guest sees no steal time.  The
probe is a small, fixed piece of interpreter work that belongs to the
benchmark, not the program, so only the host's speed changes its time.
Right after each slice the repetition times one probe call; a slice's
*calibrated* time is its host time scaled by how fast the host ran the
probes around it:

    calibrated = slice_ns * (QUIET_NS / local_probe_ns) ** ELASTICITY

``local_probe_ns`` is the median of the probes within ``WINDOW`` slices
either side.  The probe slows more than the simulator under contention,
so the correction is the probe's slowdown raised to ``ELASTICITY``, the
exponent that made groups of repetitions taken in quiet and in loaded
phases agree best on the reference host (see README.md).  On a quiet
host the calibrated time is the plain host time.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: One probe call's host time on a quiet reference host, in ns.
QUIET_NS = 500_000
#: Slope of log simulator time on log probe time on the reference host.
ELASTICITY = 0.6
#: Slices either side whose probes give a slice's local host speed.
WINDOW = 15

_ITEMS = 400


class _Item:
    __slots__ = ("key", "seq", "fields")

    def __init__(self, key: int, seq: int, fields: dict):
        self.key = key
        self.seq = seq
        self.fields = fields

    def __lt__(self, other: "_Item") -> bool:
        return self.key < other.key


def _work() -> int:
    """Heap pushes and pops of small objects with dict fields: the shape of
    an event loop's work, on a working set that stays in cache."""
    heap: List[_Item] = []
    tally: dict = {}
    key = 12345
    for seq in range(_ITEMS):
        key = (key * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Item(key, seq, {"seq": seq}))
        tally[seq % 97] = tally.get(seq % 97, 0) + 1
    total = 0
    while heap:
        item = heapq.heappop(heap)
        total += item.seq + len(item.fields)
    return total + len(tally)


def probe() -> int:
    """Time one probe call in ns, with the collector paused so the
    program's heap does not change the probe's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(slices_ns: List[int], probes_ns: List[int]) -> List[float]:
    """Each slice's host time scaled to a quiet host, in ns."""
    out = []
    for index, slice_ns in enumerate(slices_ns):
        window = probes_ns[max(0, index - WINDOW):index + WINDOW + 1]
        local = statistics.median(window)
        out.append(slice_ns * (QUIET_NS / local) ** ELASTICITY)
    return out
