"""Cluster-level defense: aggregate per-replica signals, act at the edge.

Each replica already runs its own closed-loop
:class:`~repro.defense.DefenseController`, but a per-replica view
systematically *under*-reacts in a cluster: the dispatcher spreads a
flood over N replicas, so each controller sees 1/N of the offered rate and
may sit below its own trigger while the cluster as a whole is drowning.

:class:`ClusterDefense` closes that gap.  On a fixed scan period it reads
every replica's last :class:`~repro.defense.signals.DefenseSignals` sample
(the controllers already paid for the sampling), aggregates per-/24-prefix
rates by **sum** and anomaly scores by **max**, and drives two edge
actuators on the dispatcher:

* an **edge token bucket** per hot prefix — flagged SYNs are shed before
  any replica spends a cycle on them, so the per-replica ladders' lethal
  rungs (quota kills, degradation) have less reason to fire;
* a **steering quarantine** — the hot prefix's new flows are pinned to
  the highest-indexed healthy replica, so the blast radius of whatever
  still gets through is one box, not all of them.

Both release after the prefix stays under its limit for a quiet period,
mirroring the per-replica ladder's hysteresis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.clock import seconds_to_ticks, ticks_to_seconds
from repro.defense.ratelimit import TokenBucket


@dataclass
class ClusterDefenseAction:
    """One edge escalation/release in the cluster defense log."""

    at_s: float
    kind: str      # escalate | deescalate
    prefix: str
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.at_s:.6f}s] {self.kind} edge {self.prefix}: " \
               f"{self.detail}"


#: Per-/24 SYN rate below which a prefix is never shed regardless of its
#: anomaly score.  It must sit above any legitimate prefix's aggregate
#: rate: a failover retry burst spikes the *score* of the real clients'
#: prefix too, and without the rate floor the edge would strangle exactly
#: the clients the retry stack just rescued.  The per-replica
#: controllers inherit the same floor (see ``ClusterTestbed``): sticky
#: rendezvous steering can momentarily concentrate a whole prefix on one
#: replica, so a replica-local floor sized for a standalone machine
#: would rate-limit legitimate bursts that are merely unevenly placed.
PREFIX_RATE_FLOOR = 1500.0


class ClusterDefense:
    """Aggregated signal scan loop over the whole cluster.

    Shedding is gated on the cluster-wide per-/24 SYN rate
    (:data:`PREFIX_RATE_FLOOR`) in addition to the anomaly score.
    """

    #: Scan period in simulated seconds.
    PERIOD_S = 0.05
    #: A prefix this anomalous somewhere, and loud cluster-wide, is shed
    #: at the edge to ALLOW_RATE SYN/s; it is released after
    #: RELEASE_SCANS scans under that rate.
    SCORE_ON = 4.0
    ALLOW_RATE = 50
    RELEASE_SCANS = 8

    def __init__(self, sim, replicas, dispatcher, health):
        self.sim = sim
        self.replicas = replicas
        self.dispatcher = dispatcher
        self.health = health

        self.scans = 0
        self.log: List[ClusterDefenseAction] = []
        self._quiet: Dict[str, int] = {}
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.schedule(seconds_to_ticks(self.PERIOD_S), self._scan)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _scan(self) -> None:
        if not self._running:
            return
        self.scans += 1
        rates, scores = self._aggregate()
        now = self.sim.now

        # Escalate: any prefix anomalous somewhere and loud cluster-wide.
        for prefix in sorted(scores):
            if prefix in self.dispatcher.edge_buckets:
                continue
            if scores[prefix] >= self.SCORE_ON \
                    and rates.get(prefix, 0.0) >= PREFIX_RATE_FLOOR:
                burst = max(8, self.ALLOW_RATE // 4)
                self.dispatcher.edge_buckets[prefix] = TokenBucket(
                    self.ALLOW_RATE, burst, now=now)
                self.dispatcher.steer_map[prefix] = self._quarantine()
                self._quiet[prefix] = 0
                self._log("escalate", prefix,
                          f"shed to {self.ALLOW_RATE}/s at the edge, "
                          f"quarantined to replica "
                          f"{self.dispatcher.steer_map[prefix]} "
                          f"(cluster rate {rates.get(prefix, 0):.0f}/s, "
                          f"max score {scores[prefix]:.1f})")

        # Release: offered rate back under the limit for long enough.
        for prefix in sorted(self.dispatcher.edge_buckets):
            offered = rates.get(prefix, 0.0)
            if offered <= self.ALLOW_RATE:
                self._quiet[prefix] = self._quiet.get(prefix, 0) + 1
            else:
                self._quiet[prefix] = 0
            if self._quiet[prefix] >= self.RELEASE_SCANS:
                del self.dispatcher.edge_buckets[prefix]
                self.dispatcher.steer_map.pop(prefix, None)
                del self._quiet[prefix]
                self._log("deescalate", prefix,
                          f"released (offered {offered:.0f}/s)")

        self.sim.schedule(seconds_to_ticks(self.PERIOD_S), self._scan)

    def _aggregate(self):
        """Sum rates, max scores, across every replica's last sample."""
        rates: Dict[str, float] = {}
        scores: Dict[str, float] = {}
        for replica in self.replicas:
            controller = replica.server.defense
            sig = controller.last_signals if controller else None
            if sig is None:
                continue
            for prefix, rate in sig.syn_rates.items():
                rates[prefix] = rates.get(prefix, 0.0) + rate
            for prefix, score in sig.syn_scores.items():
                if score > scores.get(prefix, 0.0):
                    scores[prefix] = score
        return rates, scores

    def _quarantine(self) -> int:
        """The quarantine target: the highest-indexed healthy replica."""
        healthy = self.health.healthy_indices() if self.health else []
        return healthy[-1] if healthy else len(self.replicas) - 1

    # ------------------------------------------------------------------
    def _log(self, kind: str, prefix: str, detail: str) -> None:
        self.log.append(ClusterDefenseAction(
            at_s=ticks_to_seconds(self.sim.now),
            kind=kind, prefix=prefix, detail=detail))

    def trace(self) -> List[str]:
        return [str(a) for a in self.log]

    def summary(self) -> Dict:
        """Digest-stable view of the cluster defense state."""
        return {
            "scans": self.scans,
            "actions": [[a.at_s, a.kind, a.prefix] for a in self.log],
            "active": sorted(self.dispatcher.edge_buckets),
        }
