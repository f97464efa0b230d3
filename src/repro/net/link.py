"""Links, hub, and switch — the wires of Figure 7.

The paper's testbed topology: clients and CGI attackers hang off a Cisco
Cat5500 switch; the switch connects through a hub to the web server, the
QoS receiver, and the SYN attacker.  The hub is a shared half-duplex
100 Mbps segment (all hub traffic serializes); each switch port is its own
100 Mbps collision domain.

Frames are delivered after serialization delay (wire size at 100 Mbps) plus
a small fixed latency per element.  These delays are what give the
testbed a realistic LAN round-trip time — which in turn shapes the idle
fraction in Table 1 and the TCP behaviour in Figure 8.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.clock import TICKS_PER_ETHERNET_BIT, micros_to_ticks
from repro.sim.engine import Simulator
from repro.net.addressing import BROADCAST, MacAddr
from repro.net.packet import EthFrame

DEFAULT_LATENCY = micros_to_ticks(10)


def serialization_ticks(frame: EthFrame) -> int:
    """Time to put ``frame`` on a 100 Mbps wire."""
    return frame.wire_size * 8 * TICKS_PER_ETHERNET_BIT


class NIC:
    """A network interface: one MAC, one medium, one receive callback."""

    def __init__(self, sim: Simulator, label: str = ""):
        self.sim = sim
        self.mac = MacAddr(label or "nic")
        self.medium: Optional["Medium"] = None
        self.on_receive: Optional[Callable[[EthFrame], None]] = None
        #: Promiscuous NICs accept frames addressed to any MAC (used by
        #: the switch's uplink bridge).
        self.promiscuous = False
        self.tx_frames = 0
        self.rx_frames = 0
        #: Frames discarded by the link-layer CRC check (corrupted in
        #: flight; see :class:`repro.net.fault.FaultInjector`).
        self.rx_crc_errors = 0

    def send(self, frame: EthFrame) -> None:
        if self.medium is None:
            raise RuntimeError(f"NIC {self.mac!r} not attached")
        self.tx_frames += 1
        self.medium.transmit(frame, self)

    def deliver(self, frame: EthFrame) -> None:
        if getattr(frame, "corrupted", False):
            self.rx_crc_errors += 1
            return
        self.rx_frames += 1
        if self.on_receive is not None:
            self.on_receive(frame)


class Medium:
    """Base: something NICs attach to."""

    def attach(self, nic: NIC) -> None:
        raise NotImplementedError

    def transmit(self, frame: EthFrame, sender: NIC) -> None:
        raise NotImplementedError


class Link(Medium):
    """Full-duplex point-to-point link between exactly two NICs."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nics: List[NIC] = []
        self._busy_until: Dict[int, int] = {0: 0, 1: 0}
        self.frames = 0

    def attach(self, nic: NIC) -> None:
        if len(self.nics) >= 2:
            raise RuntimeError("a Link connects exactly two NICs")
        self.nics.append(nic)
        nic.medium = self

    def transmit(self, frame: EthFrame, sender: NIC) -> None:
        if len(self.nics) != 2:
            raise RuntimeError("link not fully connected")
        side = self.nics.index(sender)
        peer = self.nics[1 - side]
        self.frames += 1
        start = self.sim.now
        busy = self._busy_until[side]
        if busy > start:
            start = busy
        done = start + frame.wire_size * 8 * TICKS_PER_ETHERNET_BIT
        self._busy_until[side] = done
        self.sim.at(done + DEFAULT_LATENCY, lambda: peer.deliver(frame))


class Hub(Medium):
    """Shared half-duplex segment: one transmission at a time, broadcast.

    The testbed avoids collisions by design ("all Client and CGI Attacker
    traffic share one link... reduces the number of collisions on the
    hub"), so we model serialization without collision backoff.
    """

    def __init__(self, sim: Simulator, latency: int = DEFAULT_LATENCY):
        self.sim = sim
        self.latency = latency
        self.nics: List[NIC] = []
        self._busy_until = 0
        self.frames = 0

    def attach(self, nic: NIC) -> None:
        self.nics.append(nic)
        nic.medium = self

    def transmit(self, frame: EthFrame, sender: NIC) -> None:
        self.frames += 1
        start = self.sim.now
        if self._busy_until > start:
            start = self._busy_until
        done = start + frame.wire_size * 8 * TICKS_PER_ETHERNET_BIT
        self._busy_until = done
        deliver_at = done + self.latency
        receivers = [n for n in self.nics if n is not sender]
        self.sim.at(deliver_at, lambda: self._deliver(frame, receivers))

    def _deliver(self, frame: EthFrame, receivers: List[NIC]) -> None:
        for nic in receivers:
            if (frame.dst_mac == nic.mac or frame.dst_mac is BROADCAST
                    or nic.promiscuous):
                nic.deliver(frame)
            # NICs not addressed simply ignore the frame (no promiscuous
            # mode in the testbed).


class Switch(Medium):
    """Store-and-forward learning switch with per-port output queues."""

    def __init__(self, sim: Simulator, latency: int = DEFAULT_LATENCY):
        self.sim = sim
        self.latency = latency
        self.ports: List["SwitchPort"] = []
        self.mac_table: Dict[MacAddr, "SwitchPort"] = {}
        self.frames = 0

    def attach(self, nic: NIC) -> "SwitchPort":
        port = SwitchPort(self, nic)
        self.ports.append(port)
        nic.medium = port
        return port

    def attach_uplink(self, hub: Hub, label: str = "uplink") -> NIC:
        """Bridge this switch onto a hub segment (Figure 7's topology)."""
        bridge = NIC(self.sim, label=label)
        bridge.promiscuous = True
        hub.attach(bridge)
        port = UplinkPort(self, bridge)
        self.ports.append(port)
        bridge.on_receive = port.from_hub
        return bridge

    # ------------------------------------------------------------------
    def forward(self, frame: EthFrame, in_port: "SwitchPort") -> None:
        """Called once a frame has fully arrived at the switch."""
        self.frames += 1
        self.mac_table[frame.src_mac] = in_port
        out = self.mac_table.get(frame.dst_mac)
        if out is not None and out is not in_port:
            out.egress(frame)
            return
        if out is in_port:
            return  # hairpin: already on the right segment
        # Unknown destination or broadcast: flood.
        for port in self.ports:
            if port is not in_port:
                port.egress(frame)


class SwitchPort(Medium):
    """One switch port: ingress from its NIC, serialized egress to it."""

    def __init__(self, switch: Switch, nic: NIC):
        self.switch = switch
        self.nic = nic
        self._egress_busy_until = 0
        self._ingress_busy_until = 0

    # NIC -> switch
    def transmit(self, frame: EthFrame, sender: NIC) -> None:
        sim = self.switch.sim
        start = sim.now
        if self._ingress_busy_until > start:
            start = self._ingress_busy_until
        done = start + frame.wire_size * 8 * TICKS_PER_ETHERNET_BIT
        self._ingress_busy_until = done
        arrive = done + self.switch.latency
        sim.at(arrive, lambda: self.switch.forward(frame, self))

    def attach(self, nic: NIC) -> None:  # pragma: no cover - not used
        raise RuntimeError("switch ports bind exactly one NIC")

    # switch -> NIC
    def egress(self, frame: EthFrame) -> None:
        sim = self.switch.sim
        start = sim.now
        if self._egress_busy_until > start:
            start = self._egress_busy_until
        done = start + frame.wire_size * 8 * TICKS_PER_ETHERNET_BIT
        self._egress_busy_until = done
        sim.at(done + self.switch.latency,
               lambda: self.nic.deliver(frame))


class UplinkPort(SwitchPort):
    """The port bridging the switch onto the hub."""

    def from_hub(self, frame: EthFrame) -> None:
        """A frame arrived from the hub side; forward into the switch."""
        self.switch.forward(frame, self)

    def egress(self, frame: EthFrame) -> None:
        """Switch-side frame leaving toward the hub."""
        self.nic.send(frame)
