"""Testbed assembly and measurement.

The topology reproduces Figure 7: client and CGI-attacker machines on the
Cat5500 switch; the switch uplinked to a hub shared with the web server,
the QoS receiver, and the SYN attacker.  Addressing is seeded statically
(the paper's machines lived on one LAN with warm ARP caches).

Subnets:

* ``10.1.0.0/16`` — the trusted part of the Internet (clients);
* ``10.9.0.0/16`` — the untrusted part (the SYN attacker spoofs here);
* the server is ``10.0.0.80``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.clock import seconds_to_ticks, ticks_to_server_cycles
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.kernel.owner import Owner, OwnerType
from repro.linux.server import LinuxServer
from repro.net.addressing import Subnet
from repro.net.link import Hub, Switch
from repro.policy.base import Policy
from repro.server.webserver import ScoutWebServer
from repro.workload.cgi_attacker import CgiAttacker, busy_cgi, runaway_cgi
from repro.workload.clients import HttpClient
from repro.workload.qos import QosReceiver
from repro.workload.stats import WorkloadStats
from repro.workload.syn_attacker import SynAttacker

SERVER_IP = "10.0.0.80"
TRUSTED_SUBNET = Subnet("10.1.0.0/16")
UNTRUSTED_SUBNET = Subnet("10.9.0.0/16")
QOS_IP = "10.0.0.90"


class CycleLedger:
    """Per-owner cycle accumulation over a measurement window.

    Categorizes owners the way Table 1 does: Idle, the passive paths, the
    active (connection) paths, the protection domains, and the kernel.

    ``by_owner`` holds only owners that are still alive.  On an owner's
    first charge in the window the ledger registers an ``on_destroy``
    callback; when the owner dies, its tally moves into its category's
    total and the key is dropped, so a destroyed path is not kept
    reachable by the ledger and a run's memory does not grow with the
    number of requests it served.  A charge that arrives after its owner
    was destroyed (an interrupt posted before the kill) goes straight to
    the category.
    """

    def __init__(self) -> None:
        self.by_owner: Dict[Owner, int] = {}
        #: Cycles of destroyed owners, per category.  Every category is
        #: entered on its first owner's first charge, so the key order of
        #: :meth:`by_category` is the order categories were first charged.
        self._folded: Dict[str, int] = {}
        self.recording = False
        self._cpu = None

    def attach(self, cpu) -> None:
        # The listener is only registered while recording: charges fire on
        # every consume chunk, so an always-on listener taxes runs that
        # never read the ledger (benchmarks, chaos campaigns).
        self._cpu = cpu

    def _on_charge(self, owner, cycles: int) -> None:
        if not self.recording or owner is None:
            return
        tally = self.by_owner.get(owner)
        if tally is not None:
            self.by_owner[owner] = tally + cycles
        else:
            self._first_charge(owner, cycles)

    def _first_charge(self, owner, cycles: int) -> None:
        on_destroy = getattr(owner, "on_destroy", None)
        if on_destroy is None:          # a duck-typed owner: tally only
            self.by_owner[owner] = cycles
            return
        category = self.category(owner)
        if owner.destroyed:
            self._folded[category] = self._folded.get(category, 0) + cycles
            return
        self._folded.setdefault(category, 0)
        self.by_owner[owner] = cycles
        on_destroy(self._fold)

    def _fold(self, owner) -> None:
        # A callback left over from an earlier window finds no tally.
        tally = self.by_owner.pop(owner, None)
        if tally is not None:
            self._folded[self.category(owner)] += tally

    def start(self) -> None:
        self.by_owner.clear()
        self._folded.clear()
        if not self.recording and self._cpu is not None:
            self._cpu.charge_listeners.append(self._on_charge)
        self.recording = True

    def stop(self) -> None:
        if self.recording and self._cpu is not None:
            try:
                self._cpu.charge_listeners.remove(self._on_charge)
            except ValueError:
                pass
        self.recording = False

    # ------------------------------------------------------------------
    def total(self) -> int:
        return sum(self.by_owner.values()) + sum(self._folded.values())

    def by_category(self) -> Dict[str, int]:
        out = dict(self._folded)
        for owner, cycles in self.by_owner.items():
            category = self.category(owner)
            out[category] = out.get(category, 0) + cycles
        return out

    @staticmethod
    def category(owner: Owner) -> str:
        if owner.type == OwnerType.IDLE:
            return "idle"
        if owner.type == OwnerType.KERNEL:
            return "kernel"
        if owner.type == OwnerType.PROTECTION_DOMAIN:
            return f"pd:{owner.name}"
        if owner.name.startswith("passive"):
            return "passive-path"
        if owner.name.startswith("conn"):
            return "active-path"
        return f"path:{owner.name}"


@dataclass
class RunResult:
    """What one measurement window produced."""

    window_start: int
    window_end: int
    connections_per_second: float
    cgi_attacks_per_second: float
    client_completions: int
    client_failures: int
    qos_bandwidth_bps: float
    qos_windows: List[float]
    syn_sent: int
    syn_dropped_at_demux: int
    runaway_kills: int
    cycles_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def window_cycles(self) -> int:
        return ticks_to_server_cycles(self.window_end - self.window_start)


class Testbed:
    """One complete Figure 7 machine room."""

    __test__ = False  # not a pytest test class despite the harness role

    def __init__(self, *, kind: str = "escort",
                 accounting: bool = True,
                 protection_domains: bool = False,
                 policies: Optional[List[Policy]] = None,
                 costs: Optional[CostModel] = None,
                 domain_groups: Optional[List[List[str]]] = None):
        self.sim = Simulator()
        self.costs = costs or CostModel.default()
        self.stats = WorkloadStats()
        self.policies = policies or []
        self.kind = kind

        self.hub = Hub(self.sim, latency=self.costs.hub_latency_ticks)
        self.switch = Switch(self.sim,
                             latency=self.costs.switch_latency_ticks)
        self.switch.attach_uplink(self.hub)

        listen_specs = None
        for policy in self.policies:
            specs = policy.listen_specs()
            if specs is not None:
                listen_specs = (listen_specs or []) + list(specs)

        if kind == "escort":
            self.server: object = ScoutWebServer(
                self.sim,
                accounting=accounting,
                protection_domains=protection_domains,
                ip=SERVER_IP,
                cgi_scripts={"loop": runaway_cgi, "busy": busy_cgi},
                listen_specs=listen_specs,
                costs=self.costs,
                domain_groups=domain_groups)
            for policy in self.policies:
                policy.apply(self.server)
            self.ledger = CycleLedger()
            self.ledger.attach(self.server.kernel.cpu)
        elif kind == "linux":
            self.server = LinuxServer(self.sim, ip=SERVER_IP,
                                      costs=self.costs)
            self.ledger = None
        else:
            raise ValueError(f"unknown server kind: {kind}")
        self.server.attach_network(self.hub)

        self.clients: List[HttpClient] = []
        self.cgi_attackers: List[CgiAttacker] = []
        self.syn_attacker: Optional[SynAttacker] = None
        self.qos_receiver: Optional[QosReceiver] = None
        self._client_seq = 0
        self._attacker_seq = 0

    # ------------------------------------------------------------------
    # Convenience constructors for the four configurations
    # ------------------------------------------------------------------
    @classmethod
    def escort(cls, accounting: bool = True,
               protection_domains: bool = False, **kwargs) -> "Testbed":
        """An Escort-based testbed (accounting / PD per the flags)."""
        return cls(kind="escort", accounting=accounting,
                   protection_domains=protection_domains, **kwargs)

    @classmethod
    def scout(cls, **kwargs) -> "Testbed":
        """The base Scout configuration: no accounting, one domain."""
        return cls(kind="escort", accounting=False,
                   protection_domains=False, **kwargs)

    @classmethod
    def linux(cls, **kwargs) -> "Testbed":
        """The Apache-on-Linux baseline testbed."""
        return cls(kind="linux", **kwargs)

    @classmethod
    def by_name(cls, name: str, **kwargs) -> "Testbed":
        """'scout' | 'accounting' | 'accounting_pd' | 'linux'."""
        key = name.lower()
        if key == "scout":
            return cls.scout(**kwargs)
        if key == "accounting":
            return cls.escort(accounting=True, protection_domains=False,
                              **kwargs)
        if key == "accounting_pd":
            return cls.escort(accounting=True, protection_domains=True,
                              **kwargs)
        if key == "linux":
            return cls.linux(**kwargs)
        raise ValueError(f"unknown configuration: {name}")

    # ------------------------------------------------------------------
    # Workload construction
    # ------------------------------------------------------------------
    def _wire(self, host, medium) -> None:
        host.attach(medium)
        host.learn(SERVER_IP, self.server.nic.mac)
        self.server.seed_arp(host.ip, host.nic.mac)

    def add_clients(self, count: int, document: str = "/doc-1k") -> List[HttpClient]:
        """Attach ``count`` serial-request clients on the switch."""
        added = []
        for _ in range(count):
            self._client_seq += 1
            ip = f"10.1.0.{(self._client_seq - 1) % 250 + 1}" \
                if self._client_seq <= 250 else f"10.1.1.{self._client_seq - 250}"
            client = HttpClient(self.sim, ip, SERVER_IP, document,
                                costs=self.costs, stats=self.stats)
            self._wire(client, self.switch)
            self.clients.append(client)
            added.append(client)
        return added

    def add_cgi_attackers(self, count: int,
                          script: str = "loop") -> List[CgiAttacker]:
        """Attach CGI attackers (one runaway request per second each)."""
        added = []
        for _ in range(count):
            self._attacker_seq += 1
            ip = f"10.1.2.{self._attacker_seq}"
            attacker = CgiAttacker(self.sim, ip, SERVER_IP, script=script,
                                   costs=self.costs, stats=self.stats)
            self._wire(attacker, self.switch)
            self.cgi_attackers.append(attacker)
            added.append(attacker)
        return added

    def add_syn_attacker(self, rate_per_second: int = 1000,
                         spoof_subnet: Optional[Subnet] = None,
                         ramp_to: Optional[int] = None,
                         ramp_seconds: float = 0.0,
                         spoof_hosts: int = 4094) -> SynAttacker:
        """Attach the SYN flood source on the hub.

        Defaults to the classic untrusted-subnet flood; the defense
        scenarios spoof inside the trusted subnet (where no static cap
        applies) and ramp the rate.
        """
        attacker = SynAttacker(self.sim, SERVER_IP, self.server.nic.mac,
                               spoof_subnet=spoof_subnet or UNTRUSTED_SUBNET,
                               rate_per_second=rate_per_second,
                               ramp_to=ramp_to, ramp_seconds=ramp_seconds,
                               spoof_hosts=spoof_hosts)
        attacker.attach(self.hub)
        self.syn_attacker = attacker
        return attacker

    def add_qos_receiver(self) -> QosReceiver:
        """Attach the 1 MBps stream receiver on the hub."""
        receiver = QosReceiver(self.sim, QOS_IP, SERVER_IP,
                               costs=self.costs, stats=self.stats)
        self._wire(receiver, self.hub)
        self.qos_receiver = receiver
        return receiver

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def run(self, warmup_s: float = 1.0, measure_s: float = 5.0) -> RunResult:
        """Boot, apply load for a warmup, then measure."""
        self.server.boot()
        # Let module init threads finish (passive paths must exist) before
        # any SYN arrives, or early connections eat a full TCP RTO.
        self.sim.run(until=self.sim.now + seconds_to_ticks(0.01))
        self.start_load()
        self.sim.run(until=self.sim.now + seconds_to_ticks(warmup_s))
        start = self.begin_window()
        self.sim.run(until=start + seconds_to_ticks(measure_s))
        return self.end_window(start)

    def start_load(self) -> None:
        """Start every configured traffic source (clients, attackers, QoS).

        Milestone action: also called at a fixed tick by the replayable
        :class:`~repro.snapshot.runs.ExperimentRun`.
        """
        for client in self.clients:
            client.start()
        for attacker in self.cgi_attackers:
            attacker.start()
        if self.syn_attacker is not None:
            self.syn_attacker.start()
        if self.qos_receiver is not None:
            self.qos_receiver.start()

    def begin_window(self) -> int:
        """Open the measurement window at the current tick; returns it."""
        start = self.sim.now
        self._syn_sent_at_start = (self.syn_attacker.sent
                                   if self.syn_attacker else 0)
        self._syn_drops_at_start = (
            self.server.tcp.demux_drops.get("syn-cap", 0)
            if hasattr(self.server, "tcp") else 0)
        if self.ledger is not None:
            self._flush_idle()
            self.ledger.start()
        return start

    def end_window(self, start: int) -> RunResult:
        """Close the window opened by :meth:`begin_window` and collect."""
        end = self.sim.now
        self._syn_window = (getattr(self, "_syn_sent_at_start", 0),
                            getattr(self, "_syn_drops_at_start", 0))
        if self.ledger is not None:
            self._flush_idle()
            self.ledger.stop()
        return self._collect(start, end)

    def _flush_idle(self) -> None:
        if hasattr(self.server, "kernel"):
            self.server.kernel.cpu.finalize_idle()

    def _collect(self, start: int, end: int) -> RunResult:
        qos_bw = 0.0
        qos_windows: List[float] = []
        if self.qos_receiver is not None:
            qos_bw = self.qos_receiver.achieved_bandwidth(start, end)
            qos_windows = self.qos_receiver.ten_second_averages(start, end)
        syn_sent_0, syn_drops_0 = getattr(self, "_syn_window", (0, 0))
        syn_dropped = 0
        runaway_kills = 0
        if hasattr(self.server, "tcp"):
            syn_dropped = (self.server.tcp.demux_drops.get("syn-cap", 0)
                           - syn_drops_0)
            runaway_kills = self.server.kernel.runaway_traps
        return RunResult(
            window_start=start,
            window_end=end,
            connections_per_second=self.stats.rate_per_second(
                "client", start, end),
            cgi_attacks_per_second=sum(
                a.attacks_launched for a in self.cgi_attackers)
            / max(1e-9, (end) / seconds_to_ticks(1)),
            client_completions=self.stats.completions_in(
                "client", start, end),
            client_failures=self.stats.failures.get("client", 0),
            qos_bandwidth_bps=qos_bw,
            qos_windows=qos_windows,
            syn_sent=(self.syn_attacker.sent - syn_sent_0
                      if self.syn_attacker else 0),
            syn_dropped_at_demux=syn_dropped,
            runaway_kills=runaway_kills,
            cycles_by_category=(self.ledger.by_category()
                                if self.ledger else {}),
        )
