"""Active health probing with EWMA health scores.

The dispatcher cannot see inside a replica; what it *can* do is send ICMP
echo probes down each backside link and watch whether replies come back.
:class:`HealthMonitor` runs one probe loop per replica on the simulated
clock: every period it sends an echo request (ident = replica index) and
arms a timeout; a reply before the timeout scores 1, a timeout scores 0,
and the samples fold into an EWMA health score.  Two consecutive misses
mark the replica down (fast failover beats certainty here — a false
positive only costs a drain, while a false negative blackholes every
sticky connection); two consecutive replies bring it back.

Every up/down transition is recorded as ``(tick, replica, kind)`` so runs
can report failover latency and the digest can pin the health timeline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.clock import seconds_to_ticks


class ReplicaHealth:
    """Probe-loop state for one replica."""

    __slots__ = ("index", "score", "up", "consecutive_misses",
                 "consecutive_replies", "outstanding", "probes_sent",
                 "replies_seen", "misses", "_seq")

    def __init__(self, index: int):
        self.index = index
        self.score = 1.0
        self.up = True
        self.consecutive_misses = 0
        self.consecutive_replies = 0
        #: seq -> timeout event for probes still in flight.
        self.outstanding: Dict[int, object] = {}
        self.probes_sent = 0
        self.replies_seen = 0
        self.misses = 0
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq


class HealthMonitor:
    """Per-replica probe loops driving up/down transitions.

    ``send_probe(index, seq)`` is injected by the dispatcher (it owns the
    backside NICs); the monitor owns the timing, scoring and hysteresis.
    ``on_down(index)`` is called when a replica is marked down.
    """

    #: Probe period and timeout.  The timeout is under two periods, so at
    #: most two probes per replica are ever in flight.
    PERIOD_TICKS = seconds_to_ticks(0.01)
    TIMEOUT_TICKS = seconds_to_ticks(0.015)
    #: EWMA weight of each probe sample in the health score.
    ALPHA = 0.3
    #: Consecutive misses that mark a replica down, and consecutive
    #: replies that bring it back.
    DOWN_AFTER = 2
    UP_AFTER = 2

    def __init__(self, sim, send_probe: Callable[[int, int], None],
                 replica_count: int, *,
                 on_down: Optional[Callable[[int], None]] = None):
        self.sim = sim
        self.send_probe = send_probe
        self.on_down = on_down
        self.replicas: List[ReplicaHealth] = [
            ReplicaHealth(i) for i in range(replica_count)]
        #: Every up/down transition: (tick, replica index, "down" | "up").
        self.transitions: List[Tuple[int, int, str]] = []
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for health in self.replicas:
            # Stagger the loops by replica index so N probes never share a
            # tick (the hub would serialize them anyway; this keeps the
            # event order independent of replica count).
            self.sim.schedule(self.PERIOD_TICKS + health.index,
                              lambda h=health: self._probe(h))

    def stop(self) -> None:
        self._running = False

    def healthy(self, index: int) -> bool:
        return self.replicas[index].up

    def healthy_indices(self) -> List[int]:
        return [h.index for h in self.replicas if h.up]

    # ------------------------------------------------------------------
    def _probe(self, health: ReplicaHealth) -> None:
        if not self._running:
            return
        seq = health.next_seq()
        health.probes_sent += 1
        timeout_ev = self.sim.schedule(
            self.TIMEOUT_TICKS, lambda: self._timeout(health, seq))
        health.outstanding[seq] = timeout_ev
        self.send_probe(health.index, seq)
        self.sim.schedule(self.PERIOD_TICKS,
                          lambda: self._probe(health))

    def on_reply(self, index: int, seq: int) -> None:
        """The dispatcher saw an echo reply for probe ``seq``."""
        health = self.replicas[index]
        timeout_ev = health.outstanding.pop(seq, None)
        if timeout_ev is None:
            return  # late reply, already scored as a miss
        timeout_ev.cancel()
        health.replies_seen += 1
        self._sample(health, 1.0)

    def _timeout(self, health: ReplicaHealth, seq: int) -> None:
        if health.outstanding.pop(seq, None) is None:
            return
        health.misses += 1
        self._sample(health, 0.0)

    # ------------------------------------------------------------------
    def _sample(self, health: ReplicaHealth, value: float) -> None:
        health.score = (1 - self.ALPHA) * health.score + self.ALPHA * value
        if value > 0:
            health.consecutive_replies += 1
            health.consecutive_misses = 0
            if (not health.up
                    and health.consecutive_replies >= self.UP_AFTER):
                health.up = True
                self.transitions.append((self.sim.now, health.index, "up"))
        else:
            health.consecutive_misses += 1
            health.consecutive_replies = 0
            if health.up and health.consecutive_misses >= self.DOWN_AFTER:
                health.up = False
                self.transitions.append((self.sim.now, health.index,
                                         "down"))
                if self.on_down is not None:
                    self.on_down(health.index)

    # ------------------------------------------------------------------
    def first_down_after(self, tick: int,
                         index: Optional[int] = None) -> Optional[int]:
        """Tick of the first down transition at or after ``tick``."""
        for at, idx, kind in self.transitions:
            if at >= tick and kind == "down" \
                    and (index is None or idx == index):
                return at
        return None

    def summary(self) -> Dict:
        """Digest-stable view of the health state."""
        return {
            "transitions": [[at, idx, kind]
                            for at, idx, kind in self.transitions],
            "replicas": [{
                "up": h.up,
                "score": round(h.score, 9),
                "probes": h.probes_sent,
                "replies": h.replies_seen,
                "misses": h.misses,
            } for h in self.replicas],
        }
