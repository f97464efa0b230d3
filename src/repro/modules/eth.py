"""The Ethernet device driver module.

ETH owns the NIC.  On receive it runs the incremental demultiplexer at
interrupt level — charging the interrupt and demux cycles to the path the
packet resolves to (or to the driver's domain for drops) — and enqueues the
frame on the path's input queue.  This early classification is the paper's
whole SYN-defence story: a flooded SYN is recognized and dropped for the
cost of an interrupt plus a few demux calls, before any path resources are
committed.

On transmit it serializes frames onto the wire through the NIC.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.sim.cpu import Cycles, Interrupt
from repro.core.demux import DROP, Demultiplexer, DemuxResult
from repro.core.path import FORWARD, PathWork, Stage
from repro.modules.base import Module, OpenResult
from repro.net.link import NIC
from repro.net.packet import ETHERTYPE_ARP, ETHERTYPE_IP, EthFrame


class OutFrame:
    """A fully-resolved outbound frame handed to ETH by IP or ARP."""

    __slots__ = ("dst_mac", "ethertype", "payload")

    def __init__(self, dst_mac, ethertype: int, payload: Any):
        self.dst_mac = dst_mac
        self.ethertype = ethertype
        self.payload = payload


class EthModule(Module):
    """Driver for the DE500 Ethernet adapter of the testbed."""

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd):
        super().__init__(kernel, name, pd)
        self.nic: Optional[NIC] = None
        self.demultiplexer: Optional[Demultiplexer] = None
        self.rx_frames = 0
        self.tx_frames = 0
        self.drops: Dict[str, int] = {}
        self.queue_overflows = 0

    # ------------------------------------------------------------------
    # Device binding
    # ------------------------------------------------------------------
    def bind(self, nic: NIC, demultiplexer: Demultiplexer) -> None:
        self.nic = nic
        self.demultiplexer = demultiplexer
        nic.on_receive = self.on_frame

    # ------------------------------------------------------------------
    # Receive: interrupt + demux
    # ------------------------------------------------------------------
    def on_frame(self, frame: EthFrame) -> None:
        """NIC receive callback (runs at engine-event time)."""
        self.rx_frames += 1
        costs = self.costs
        result = self.demultiplexer.classify(self, frame)
        demux_cycles = result.demux_cycles(self.kernel)
        if result.kind == DROP:
            self.drops[result.reason] = self.drops.get(result.reason, 0) + 1
            # Drop work is charged to the driver's domain: no path exists
            # (or deserves) to pay for it.
            self.kernel.cpu.post_interrupt(Interrupt(
                [(self.pd, costs.eth_rx_interrupt + demux_cycles)],
                label=f"eth-drop:{result.reason}"))
            return
        path = result.path

        def enqueue() -> None:
            if path.destroyed:
                self.drops["dead-path"] = self.drops.get("dead-path", 0) + 1
                return
            stage = path.stage_of(self.name)
            if not path.enqueue(PathWork(stage, FORWARD, frame)):
                self.queue_overflows += 1

        self.kernel.cpu.post_interrupt(Interrupt(
            [(path, costs.eth_rx_interrupt + demux_cycles)],
            on_complete=enqueue, label="eth-rx"))

    def demux(self, frame: EthFrame) -> DemuxResult:
        if frame.ethertype == ETHERTYPE_ARP:
            if "arp" in self.graph:
                return DemuxResult.forward("arp", frame.payload)
            return DemuxResult.drop("no-arp")
        if frame.ethertype == ETHERTYPE_IP:
            if "ip" in self.graph:
                return DemuxResult.forward("ip", frame.payload)
            return DemuxResult.drop("no-ip")
        return DemuxResult.drop("ethertype")

    # ------------------------------------------------------------------
    # Path membership
    # ------------------------------------------------------------------
    def open(self, path, attrs, origin):
        # ETH is the network end of every path; it never extends further.
        return OpenResult(self.make_stage(path), ())

    # ------------------------------------------------------------------
    # Path processing
    # ------------------------------------------------------------------
    def forward(self, stage: Stage, frame: EthFrame) -> Generator:
        """Inbound frame on a path thread: strip and pass up."""
        yield Cycles(self.costs.eth_rx + self.acct(1))
        result = yield from stage.send_forward(frame.payload)
        return result

    def backward(self, stage: Stage, out: OutFrame) -> Generator:
        """Outbound: frame the payload and hand it to the NIC."""
        yield Cycles(self.costs.eth_tx + self.acct(1))
        self.tx_frames += 1
        frame = EthFrame(self.nic.mac, out.dst_mac, out.ethertype,
                         out.payload)
        self.nic.send(frame)
        return True
