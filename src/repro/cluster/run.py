"""The cluster chaos experiment as a replayable spec.

One :class:`ClusterRun` is one cell of the 1-vs-N comparison: a seeded
client population with the application-level retry stack, optionally a
ramping trusted-subnet SYN flood, and one chaos scenario dropped into the
middle of the measurement window:

* ``crash`` — a replica fail-stops mid-window and cold-restarts later
  (connection state flushed, exactly what a reboot loses);
* ``partition`` — the dispatcher↔replica link is cut and later healed
  (connection state survives on both sides);
* ``flap`` — the same link bounces down/up several times.

Everything derives from the spec and the seed — client RNGs are reseeded
per ``(ip, seed)``, the flood ramp, probe loops and defense scans are all
tick-driven — so a recorded run replays bit for bit, serial and
``--workers`` sweeps are byte-identical, and the digest machinery can pin
the whole cluster's state (see ``_cluster_summary`` in
:mod:`repro.snapshot.digest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.clock import seconds_to_ticks, ticks_to_seconds
from repro.snapshot.runs import DOCUMENTS, WindowedRun, spec_field

CHAOS_KINDS = ("none", "crash", "partition", "flap")

#: The flood spoofs the same trusted-subnet corner as the defense runs:
#: inside 10.1.0.0/16 (no static cap applies) but disjoint from real
#: client addresses.
SPOOF_SUBNET_CIDR = "10.1.64.0/18"

#: Link-flap chaos: the victim's link bounces this many times, this far
#: apart, starting at the chaos milestone.
FLAP_COUNT = 3
FLAP_PERIOD_S = 0.04


@dataclass
class ClusterRunResult:
    """What one cluster cell measured."""

    replicas: int
    adaptive: bool
    chaos: str
    seed: int
    window_start: int
    window_end: int
    goodput_cps: float
    completions: int
    aborted: int
    refused: int
    retried: int
    degraded: int
    syn_sent: int
    #: Seconds from the chaos milestone to the health monitor marking the
    #: victim down (None when no chaos fired or it was never detected).
    failover_latency_s: Optional[float]
    health_downs: int
    health_ups: int
    drained_conns: int
    rst_sent: int
    edge_shed: int
    forwarded_in: int
    forwarded_out: int
    drops_no_replica: int
    flushed_paths: int
    defense_actions: int
    per_replica: List[Dict] = field(default_factory=list)


@dataclass(eq=False)
class ClusterRun(WindowedRun):
    """One cluster chaos cell as fixed-tick milestones."""

    KIND = "cluster"
    OUTCOMES = ("aborted", "refused", "retried", "degraded")
    #: Run-time state: the tick the chaos hit, if it has.
    _chaos_tick = None

    chaos: str = spec_field("crash", choices=CHAOS_KINDS)
    replicas: int = spec_field(3, low=1)
    adaptive: bool = True
    seed: int = spec_field(1, low=None)
    clients: int = 12
    document: str = spec_field("/doc-1k", choices=DOCUMENTS)
    retry: bool = True
    syn_rate: int = 0
    syn_ramp_to: int = 4000
    syn_ramp_s: float = 1.5
    spoof_hosts: int = 500
    victim: int = 0
    chaos_at_s: float = 0.5
    chaos_restore_s: float = 1.7
    warmup_s: float = 0.5
    measure_s: float = spec_field(2.5, above=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.victim >= self.replicas:
            raise self.field_error(
                "victim", f"must index a replica (< {self.replicas}), "
                          f"got {self.victim}")

    # ------------------------------------------------------------------
    def build(self) -> None:
        from repro.cluster.harness import ClusterTestbed
        from repro.net.addressing import Subnet

        self.bed = ClusterTestbed(replicas=self.replicas,
                                  adaptive=self.adaptive)
        self.bed.add_clients(self.clients, document=self.document,
                             retry=self.retry)
        # Per-seed determinism: client RNGs (request jitter + backoff
        # jitter) are the only stochastic element, reseeded per (ip, seed).
        for client in self.bed.clients:
            client.rng.seed(f"{client.ip}/{self.seed}")
        if self.syn_rate:
            self.bed.add_syn_attacker(
                self.syn_rate,
                spoof_subnet=Subnet(SPOOF_SUBNET_CIDR),
                ramp_to=self.syn_ramp_to,
                ramp_seconds=self.syn_ramp_s,
                spoof_hosts=self.spoof_hosts)

    def window_milestones(self, start: int,
                          end: int) -> List[Tuple[int, str]]:
        if self.chaos == "none":
            return []
        out = [(start + seconds_to_ticks(self.chaos_at_s), "chaos_hit")]
        restore_at = start + seconds_to_ticks(self.chaos_restore_s)
        if self.chaos in ("crash", "partition") and restore_at < end:
            out.append((restore_at, "chaos_restore"))
        return out

    # -- timeline actions ----------------------------------------------
    def ms_boot(self) -> None:
        self.bed.boot()

    def ms_chaos_hit(self) -> None:
        self._chaos_tick = self.bed.sim.now
        replica = self.bed.replicas[self.victim]
        if self.chaos == "crash":
            replica.crash()
        elif self.chaos == "partition":
            replica.partition()
        elif self.chaos == "flap":
            self._start_flaps(replica)

    def _start_flaps(self, replica) -> None:
        """Bounce the victim's link FLAP_COUNT times, ending up."""
        period = seconds_to_ticks(FLAP_PERIOD_S)
        replica.gate.set_link(False)
        for k in range(1, FLAP_COUNT * 2):
            up = (k % 2 == 1)
            self.bed.sim.schedule(
                k * period,
                lambda up=up: replica.gate.set_link(up))

    def ms_chaos_restore(self) -> None:
        replica = self.bed.replicas[self.victim]
        if self.chaos == "crash":
            replica.restore()
        elif self.chaos == "partition":
            replica.heal_partition()

    def ms_end_window(self) -> None:
        bed = self.bed
        start = self._window_start
        end = bed.sim.now
        stats = bed.stats
        dispatcher = bed.dispatcher

        failover = None
        if self._chaos_tick is not None:
            down_at = bed.health.first_down_after(self._chaos_tick,
                                                  index=self.victim)
            if down_at is not None:
                failover = ticks_to_seconds(down_at - self._chaos_tick)

        transitions = bed.health.transitions
        self.run_result = ClusterRunResult(
            replicas=self.replicas,
            adaptive=self.adaptive,
            chaos=self.chaos,
            seed=self.seed,
            window_start=start,
            window_end=end,
            goodput_cps=stats.rate_per_second("client", start, end),
            completions=stats.completions_in("client", start, end),
            **self.window_outcomes(),
            syn_sent=(bed.syn_attacker.sent if bed.syn_attacker else 0),
            failover_latency_s=failover,
            health_downs=sum(1 for _, _, k in transitions if k == "down"),
            health_ups=sum(1 for _, _, k in transitions if k == "up"),
            drained_conns=dispatcher.drained_conns,
            rst_sent=dispatcher.rst_sent,
            edge_shed=dispatcher.edge_shed,
            forwarded_in=dispatcher.forwarded_in,
            forwarded_out=dispatcher.forwarded_out,
            drops_no_replica=dispatcher.drops_no_replica,
            flushed_paths=sum(r.flushed_paths for r in bed.replicas),
            defense_actions=(len(bed.defense.log) if bed.defense else 0),
            per_replica=[{
                "index": r.index,
                "link_up": r.link_up,
                "crashes": r.crashes,
                "demux_drops": sum(r.server.tcp.demux_drops.values()),
                "half_open": r.server.tcp.half_open(),
            } for r in bed.replicas],
        )

    def extra_summary(self) -> Dict:
        return {**super().extra_summary(), "seed": self.seed}
