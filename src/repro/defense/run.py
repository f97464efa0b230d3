"""The defense experiment as a replayable spec.

One :class:`DefenseRun` is one cell of the static-vs-adaptive comparison:
a seeded client population plus one attack profile, measured with or
without the closed-loop controller.  The attack profiles are chosen to be
exactly the loads a *static* configuration cannot be pre-tuned for:

* ``synflood`` — a ramping SYN flood spoofing addresses **inside the
  trusted subnet**, where the static policy applies no cap (capping the
  trusted subnet would throttle the real clients too);
* ``runaway-cgi`` — runaway CGI requests burning CPU until killed;
* ``mixed`` — both at once.

Everything derives from the spec and the seed: client RNGs are reseeded
per ``(ip, seed)``, the flood ramp is tick-driven, and the controller
scans on the simulated clock — so a recorded run replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.snapshot.runs import CONFIGS, DOCUMENTS, WindowedRun, spec_field

ATTACKS = ("none", "synflood", "runaway-cgi", "mixed")

#: The trusted-subnet corner the flood spoofs from: inside 10.1.0.0/16
#: (so the static trusted path accepts it) but disjoint from the real
#: client addresses (10.1.0.x / 10.1.1.x) and CGI attackers (10.1.2.x).
SPOOF_SUBNET_CIDR = "10.1.64.0/18"


@dataclass
class DefenseRunResult:
    """What one defense cell measured."""

    attack: str
    adaptive: bool
    seed: int
    window_start: int
    window_end: int
    goodput_cps: float
    completions: int
    aborted: int
    refused: int
    degraded: int
    syn_sent: int
    demux_drops: Dict[str, int]
    syncookies_sent: int
    syncookies_accepted: int
    half_open_end: int
    runaway_traps: int
    throttled: int
    escalations: int
    deescalations: int
    absorbed: int
    degrade_level_end: int
    ladder: List[str] = field(default_factory=list)


@dataclass(eq=False)
class DefenseRun(WindowedRun):
    """One static-vs-adaptive defense cell as fixed-tick milestones."""

    KIND = "defense"
    OUTCOMES = ("aborted", "refused", "degraded")

    attack: str = spec_field("synflood", choices=ATTACKS)
    adaptive: bool = True
    seed: int = spec_field(1, low=None)
    #: The controller drives an Escort kernel: any configuration but Linux.
    config: str = spec_field("accounting",
                             choices=tuple(c for c in CONFIGS
                                           if c != "linux"))
    clients: int = 12
    document: str = spec_field("/doc-1k", choices=DOCUMENTS)
    syn_rate: int = 200
    syn_ramp_to: int = 4000
    syn_ramp_s: float = 1.5
    spoof_hosts: int = 500
    cgi_attackers: int = 8
    untrusted_cap: int = 16
    warmup_s: float = 0.5
    measure_s: float = spec_field(2.0, above=0)

    # ------------------------------------------------------------------
    def build(self) -> None:
        from repro.experiments.harness import TRUSTED_SUBNET, Testbed
        from repro.net.addressing import Subnet
        from repro.policy import AdaptivePolicy, RunawayPolicy, SynFloodPolicy

        static = [
            SynFloodPolicy(TRUSTED_SUBNET, untrusted_cap=self.untrusted_cap),
            RunawayPolicy(2.0),
        ]
        if self.adaptive:
            policies = [AdaptivePolicy(*static)]
        else:
            policies = static
        self.bed = Testbed.by_name(self.config, policies=policies)
        self.bed.add_clients(self.clients, document=self.document)
        # Per-seed determinism: the client RNGs (request jitter) are the
        # only stochastic element, reseeded from (ip, seed).
        for client in self.bed.clients:
            client.rng.seed(f"{client.ip}/{self.seed}")
        if self.attack in ("synflood", "mixed"):
            self.bed.add_syn_attacker(
                self.syn_rate,
                spoof_subnet=Subnet(SPOOF_SUBNET_CIDR),
                ramp_to=self.syn_ramp_to,
                ramp_seconds=self.syn_ramp_s,
                spoof_hosts=self.spoof_hosts)
        if self.attack in ("runaway-cgi", "mixed"):
            self.bed.add_cgi_attackers(self.cgi_attackers)

    def ms_end_window(self) -> None:
        bed = self.bed
        start = self._window_start
        end = bed.sim.now
        bed.end_window(start)
        server = bed.server
        stats = bed.stats
        controller = server.defense
        self.run_result = DefenseRunResult(
            attack=self.attack,
            adaptive=self.adaptive,
            seed=self.seed,
            window_start=start,
            window_end=end,
            goodput_cps=stats.rate_per_second("client", start, end),
            completions=stats.completions_in("client", start, end),
            **self.window_outcomes(),
            syn_sent=(bed.syn_attacker.sent if bed.syn_attacker else 0),
            demux_drops=dict(sorted(server.tcp.demux_drops.items())),
            syncookies_sent=server.tcp.syncookies_sent,
            syncookies_accepted=server.tcp.syncookies_accepted,
            half_open_end=server.tcp.half_open(),
            runaway_traps=server.kernel.runaway_traps,
            throttled=len(server.kernel.quotas.throttles),
            escalations=(len(controller.escalations())
                         if controller else 0),
            deescalations=(len(controller.deescalations())
                           if controller else 0),
            absorbed=(controller.absorbed if controller else 0),
            degrade_level_end=server.http.degrade_level,
            ladder=(controller.ladder_trace() if controller else []),
        )

    def extra_summary(self) -> Dict:
        return {**super().extra_summary(), "seed": self.seed}
