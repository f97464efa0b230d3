"""Workload measurement: completions, rates, QoS windows.

The paper reports ten-second averages measured after the load has run for
a warmup period; :class:`WorkloadStats` supports exactly that: every event
is timestamped, and rates are computed over an arbitrary window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

from repro.sim.clock import TICKS_PER_SECOND


class WorkloadStats:
    """Timestamped event log per workload class."""

    #: Distinct connection outcomes beyond plain completion.  ``aborted``
    #: = the client's TCP gave up (retry budget) or was reset mid-stream;
    #: ``refused`` = actively refused before establishment (RST to a
    #: SYN); ``degraded`` = completed, but with a shed/shrunk response
    #: (the server's graceful-degradation tiers); ``retried`` = one
    #: failed *attempt* that the client's retry stack is about to redo —
    #: recorded per attempt so a failover retry is never double-counted
    #: as a fresh completion (the logical request completes at most
    #: once).  Defense experiments need these separated: an "aborted"
    #: legitimate client under an active defense is a false-positive
    #: drop, while a burst of "retried" marks a failover in progress.
    OUTCOMES = ("aborted", "refused", "degraded", "retried")

    def __init__(self) -> None:
        #: class -> sorted list of completion ticks.
        self._completions: Dict[str, List[int]] = {}
        #: class -> list of (tick, nbytes) for byte streams.
        self._bytes: Dict[str, List[Tuple[int, int]]] = {}
        self.failures: Dict[str, int] = {}
        #: (class, outcome) -> sorted list of event ticks.
        self._outcomes: Dict[Tuple[str, str], List[int]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def complete(self, cls: str, tick: int) -> None:
        self._completions.setdefault(cls, []).append(tick)

    def add_bytes(self, cls: str, tick: int, nbytes: int) -> None:
        self._bytes.setdefault(cls, []).append((tick, nbytes))

    def fail(self, cls: str) -> None:
        self.failures[cls] = self.failures.get(cls, 0) + 1

    def outcome(self, cls: str, kind: str, tick: int) -> None:
        """Record a timestamped outcome (see :data:`OUTCOMES`)."""
        if kind not in self.OUTCOMES:
            raise ValueError(f"unknown outcome {kind!r}")
        self._outcomes.setdefault((cls, kind), []).append(tick)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def completions_in(self, cls: str, start: int, end: int) -> int:
        ticks = self._completions.get(cls, [])
        return bisect_right(ticks, end) - bisect_left(ticks, start)

    def rate_per_second(self, cls: str, start: int, end: int) -> float:
        """Completions per second of ``cls`` in the window [start, end]."""
        if end <= start:
            return 0.0
        count = self.completions_in(cls, start, end)
        return count * TICKS_PER_SECOND / (end - start)

    def bytes_in(self, cls: str, start: int, end: int) -> int:
        return sum(n for t, n in self._bytes.get(cls, [])
                   if start <= t <= end)

    def bandwidth_bps(self, cls: str, start: int, end: int) -> float:
        """Bytes per second of ``cls`` in the window [start, end]."""
        if end <= start:
            return 0.0
        return self.bytes_in(cls, start, end) * TICKS_PER_SECOND / (end - start)

    def windowed_bandwidth(self, cls: str, start: int, end: int,
                           window_ticks: int) -> List[float]:
        """Per-window bandwidths (the paper's ten-second averages)."""
        out = []
        t = start
        while t + window_ticks <= end:
            out.append(self.bandwidth_bps(cls, t, t + window_ticks))
            t += window_ticks
        return out

    def outcomes_in(self, cls: str, kind: str, start: int, end: int) -> int:
        ticks = self._outcomes.get((cls, kind), [])
        return bisect_right(ticks, end) - bisect_left(ticks, start)

    def outcome_total(self, cls: str, kind: str) -> int:
        return len(self._outcomes.get((cls, kind), []))

    def total(self, cls: str) -> int:
        return len(self._completions.get(cls, []))
