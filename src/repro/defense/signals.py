"""Defense signals: sliding-window baselines over the accounting counters.

The accounting mechanism (paper section 2) already charges every cycle,
page and packet to an owner; this module only *reads* those counters.
Each scan window the monitor computes per-window deltas — SYN arrivals per
source /24 prefix, runaway traps, half-open connections, free pages — and
folds them into exponentially-weighted baselines.  The anomaly score of a
source is how far its current rate sits above its own learned baseline,
measured in mean-absolute-deviations, so a prefix that has always been
busy is not flagged while a previously-quiet prefix that starts spraying
SYNs is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.clock import TICKS_PER_SECOND


class EwmaBaseline:
    """An EWMA mean with an EWMA mean-absolute-deviation.

    ``score(x)`` is the positive deviation of ``x`` above the mean in
    deviation units — a robust, cheap anomaly score.  The deviation floor
    keeps a perfectly steady signal (dev → 0) from scoring minor noise as
    infinitely anomalous.
    """

    __slots__ = ("alpha", "mean", "dev", "dev_floor", "samples")

    def __init__(self, alpha: float = 0.25, dev_floor: float = 1.0):
        self.alpha = alpha
        self.mean: Optional[float] = None
        self.dev = 0.0
        self.dev_floor = dev_floor
        self.samples = 0

    def update(self, x: float) -> None:
        self.samples += 1
        if self.mean is None:
            self.mean = x
            return
        err = x - self.mean
        self.dev = (1 - self.alpha) * self.dev + self.alpha * abs(err)
        self.mean = self.mean + self.alpha * err

    def score(self, x: float) -> float:
        """Positive deviations above baseline; 0 for at-or-below."""
        if self.mean is None:
            return 0.0
        denom = max(self.dev, self.dev_floor)
        return max(0.0, (x - self.mean) / denom)


@dataclass
class DefenseSignals:
    """One scan window's worth of observations."""

    at: int                                  # sim tick of the sample
    window_ticks: int
    syn_rates: Dict[str, float] = field(default_factory=dict)
    syn_scores: Dict[str, float] = field(default_factory=dict)
    half_open: int = 0
    trap_delta: int = 0
    free_pages: int = 0
    active_paths: int = 0

    def hot_prefixes(self, score_on: float, rate_floor: float) -> List[str]:
        """Prefixes that are both anomalous and materially loud, sorted
        for deterministic iteration."""
        return sorted(p for p, s in self.syn_scores.items()
                      if s >= score_on
                      and self.syn_rates.get(p, 0.0) >= rate_floor)


class AccountingMonitor:
    """Samples the server's accounting counters into baselines.

    Driven by the controller's engine-tick scan (never wall clock); all
    state is plain counters and EWMAs, so a checkpointed run resumes with
    identical behavior.
    """

    #: EWMA weight of each new sample, and the deviation floor that keeps
    #: a steady prefix from scoring noise as anomalous.
    ALPHA = 0.25
    DEV_FLOOR = 5.0

    def __init__(self, server):
        self.server = server
        #: prefix -> EWMA of its per-second SYN arrival rate.
        self.baselines: Dict[str, EwmaBaseline] = {}
        self._last_arrivals: Dict[str, int] = {}
        self._last_traps = 0
        self._last_at: Optional[int] = None
        self.samples_taken = 0

    def sample(self) -> DefenseSignals:
        kernel = self.server.kernel
        tcp = self.server.tcp
        now = kernel.sim.now
        window = (now - self._last_at) if self._last_at is not None else 0
        self._last_at = now
        self.samples_taken += 1

        sig = DefenseSignals(at=now, window_ticks=window)
        sig.half_open = tcp.half_open()
        sig.free_pages = kernel.allocator.free_pages
        sig.active_paths = sum(1 for p in tcp.conn_table.values()
                               if not p.destroyed)

        traps = kernel.runaway_traps
        sig.trap_delta = traps - self._last_traps
        self._last_traps = traps

        if window <= 0:
            return sig
        # Per-prefix SYN rates this window (offered load: the demux
        # counts arrivals before any gate/cap decision).
        for prefix in sorted(tcp.syn_arrivals):
            total = tcp.syn_arrivals[prefix]
            delta = total - self._last_arrivals.get(prefix, 0)
            self._last_arrivals[prefix] = total
            rate = delta * TICKS_PER_SECOND / window
            sig.syn_rates[prefix] = rate
            base = self.baselines.get(prefix)
            if base is None:
                base = self.baselines[prefix] = EwmaBaseline(
                    self.ALPHA, self.DEV_FLOOR)
            # Score against the baseline *before* folding the new sample
            # in, or a step attack would teach its own baseline first.
            sig.syn_scores[prefix] = base.score(rate)
            base.update(rate)
        return sig
