"""The SYN attacker (paper section 4.1.2).

"A SYN Attacker sends a SYN request to the server at a rate of 1000 every
second."  The attacker machine sits on the hub (Figure 7) and sprays raw
SYN segments with rotating spoofed source addresses drawn from the
untrusted subnet; it never completes a handshake, so every accepted SYN
leaves a half-open connection on the server until the SYN-ACK retry budget
expires.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.net.addressing import MacAddr, Subnet
from repro.net.link import NIC
from repro.net.packet import (
    ETHERTYPE_IP,
    EthFrame,
    FLAG_SYN,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)


class SynAttacker:
    """Raw SYN flood source with spoofed addresses."""

    def __init__(self, sim: Simulator, server_ip: str, server_mac: MacAddr,
                 spoof_subnet: Subnet, rate_per_second: int = 1000,
                 target_port: int = 80,
                 costs: Optional[CostModel] = None,
                 ramp_to: Optional[int] = None,
                 ramp_seconds: float = 0.0,
                 spoof_hosts: int = 4094):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if ramp_to is not None and ramp_to <= 0:
            raise ValueError(f"ramp_to must be positive: {ramp_to}")
        if spoof_hosts <= 0:
            raise ValueError(f"spoof_hosts must be positive: {spoof_hosts}")
        self.sim = sim
        self.server_ip = server_ip
        self.server_mac = server_mac
        self.spoof_subnet = spoof_subnet
        self.rate = rate_per_second
        self.target_port = target_port
        self.nic = NIC(sim, label="syn-attacker")
        self.sent = 0
        self._running = False
        self._interval = TICKS_PER_SECOND // rate_per_second
        self._spoof_index = 0
        self.spoof_hosts = spoof_hosts
        #: Ramping flood: the rate climbs linearly from ``rate_per_second``
        #: to ``ramp_to`` over ``ramp_seconds`` after :meth:`start` — the
        #: adaptive-defense scenario, where no static tuning fits both the
        #: quiet start and the saturated end.
        self.ramp_to = ramp_to
        self._ramp_ticks = int(ramp_seconds * TICKS_PER_SECOND)
        self._start_tick: Optional[int] = None

    def current_rate(self) -> int:
        """The instantaneous send rate, including any ramp."""
        if (self.ramp_to is None or self._ramp_ticks <= 0
                or self._start_tick is None):
            return self.rate
        elapsed = self.sim.now - self._start_tick
        if elapsed >= self._ramp_ticks:
            return self.ramp_to
        return self.rate + (self.ramp_to - self.rate) * elapsed \
            // self._ramp_ticks

    def attach(self, medium) -> None:
        medium.attach(self.nic)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._start_tick = self.sim.now
        self.sim.schedule(self._interval, self._fire)

    def stop(self) -> None:
        self._running = False

    def _fire(self) -> None:
        if not self._running:
            return
        self._spoof_index += 1
        # Rotate through the spoofed hosts and the whole port space.
        src_ip = next(self.spoof_subnet.hosts(
            1, start=1 + (self._spoof_index % self.spoof_hosts)))
        src_port = 1024 + (self._spoof_index % 60_000)
        seg = TCPSegment(src_port, self.target_port, seq=0, ack=0,
                         flags=FLAG_SYN)
        dgram = IPDatagram(src_ip, self.server_ip, IPPROTO_TCP, seg)
        self.nic.send(EthFrame(self.nic.mac, self.server_mac,
                               ETHERTYPE_IP, dgram))
        self.sent += 1
        interval = TICKS_PER_SECOND // self.current_rate()
        self.sim.schedule(max(1, interval), self._fire)
