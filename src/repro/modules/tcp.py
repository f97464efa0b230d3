"""The TCP module.

Wraps the shared :class:`~repro.net.tcp.TCPEngine` state machine in Scout
path semantics:

* **Passive paths** hold listening state.  A listener can have several
  passive paths, one per source subnet — this is how the SYN-flood policy
  separates the trusted and untrusted Internet (paper section 4.4.1).  Each
  passive path tracks how many active paths it has created that are still
  in SYN_RCVD; the demux function consults that count and drops flood SYNs
  *during demultiplexing*, as early and as cheaply as possible.
* **Active paths** carry one connection each.  The paper's Table 1
  measurement window is exactly this path's life: it is created when the
  passive path accepts the SYN, and every cycle of protocol processing,
  timer handling, and teardown is charged to it.

Per-connection control state (the TCB) is allocated from TCP's domain heap
and charged to the path, with a registered destructor that frees it on
``pathDestroy`` — the chargeback dance of paper section 2.4.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.sim.cpu import Cycles, YieldCPU
from repro.core.attributes import Attributes
from repro.core.demux import DemuxResult
from repro.core.lifecycle import PathCreateError
from repro.core.path import BACKWARD, FORWARD, PathWork, Stage
from repro.modules.base import Module, OpenResult
from repro.net.addressing import Subnet
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    IPDatagram,
    TCPSegment,
)
from repro.net.tcp import TCPActions, TCPEngine

TCB_BYTES = 256
PURE_ACK_COST = 2_500


class TcpFlush:
    """Work item: transmit an active path's pending engine actions."""

    __slots__ = ("actions",)

    def __init__(self, actions: Optional[TCPActions] = None):
        self.actions = actions


class AppSend:
    """Work item from the application: send bytes (maybe closing)."""

    __slots__ = ("nbytes", "fin", "app_data")

    def __init__(self, nbytes: int, fin: bool = False, app_data: Any = None):
        self.nbytes = nbytes
        self.fin = fin
        self.app_data = app_data


class HTTPData:
    """In-order stream data delivered up to the application."""

    __slots__ = ("nbytes", "app_data", "eof")

    def __init__(self, nbytes: int, app_data: Any = None, eof: bool = False):
        self.nbytes = nbytes
        self.app_data = app_data
        self.eof = eof


class Listener:
    """A listening port with one passive path per source subnet.

    A *penalty* passive path (paper section 4.4.4) may additionally be
    registered: sources matching its predicate — typically "has previously
    violated a resource bound" — are demultiplexed there first, so a
    known offender's connection requests land on a path with a very small
    resource allocation or very low priority.
    """

    def __init__(self, port: int):
        self.port = port
        #: (subnet, passive_path) in registration order; first match wins.
        self.passive_paths: List[Tuple[Subnet, object]] = []
        self.penalty_path = None
        self.penalty_predicate = None

    def register(self, subnet: Subnet, path) -> None:
        self.passive_paths.append((subnet, path))

    def set_penalty(self, path, predicate) -> None:
        self.penalty_path = path
        self.penalty_predicate = predicate

    def select(self, src_ip: str):
        if (self.penalty_path is not None
                and not self.penalty_path.destroyed
                and self.penalty_predicate is not None
                and self.penalty_predicate(src_ip)):
            return self.penalty_path
        for subnet, path in self.passive_paths:
            if not path.destroyed and subnet.contains(src_ip):
                return path
        return None

    def unregister(self, path) -> None:
        self.passive_paths = [(s, p) for s, p in self.passive_paths
                              if p is not path]


class TcpModule(Module):
    """TCP over the path architecture."""

    interfaces = frozenset({"aio"})

    def __init__(self, kernel, name, pd, local_ip: str,
                 server_delack_ticks: Optional[int] = None):
        super().__init__(kernel, name, pd)
        self.local_ip = local_ip
        self.listeners: Dict[int, Listener] = {}
        #: (local_port, remote_ip, remote_port) -> active path
        self.conn_table: Dict[Tuple[int, str, int], object] = {}
        self.path_manager = None  # injected by the server assembly
        self.server_delack_ticks = server_delack_ticks
        #: Hook: paths created for new connections get this runtime limit.
        self.active_path_runtime_limit: Optional[int] = None
        #: Hook: scheduler tickets for new active paths.
        self.active_path_tickets: int = 1
        #: Hook: src_ip -> bool, wired onto penalty passive paths at
        #: attach time (set by the misbehaver policy before boot).
        self.penalty_predicate = None
        #: Hook: ResourceQuota applied to each new connection path (set
        #: while the adaptive defense's quota rung is active).
        self.active_path_quota = None
        self.master_event = None
        self.connections_accepted = 0
        self.connections_established = 0
        self.connections_closed = 0
        self.connections_aborted = 0
        self.demux_drops: Dict[str, int] = {}
        #: Per-/24-prefix SYN arrival counts (offered load, counted before
        #: any gate/cap decision) — the defense monitor's per-source signal.
        self.syn_arrivals: Dict[str, int] = {}
        #: Hook: optional admission gate consulted for each SYN during
        #: demux; ``gate(prefix) -> bool``, False drops as "rate-limit".
        #: Installed by the adaptive defense controller's first rung.
        self.syn_gate = None
        #: SYN-cookie stateless fallback (the defense ladder's second
        #: rung): while True, SYNs are answered with a cookie SYN-ACK and
        #: *no* connection state is allocated; the final ACK of the
        #: handshake reconstructs the engine from the cookie.
        self.syncookies = False
        self.syncookie_secret = 0x5EC0
        self.syncookies_sent = 0
        self.syncookies_accepted = 0
        #: Once cookies have ever been armed, cookie ACKs stay acceptable
        #: (validation only passes for genuine cookie holders), so clients
        #: mid-handshake are not orphaned by a de-escalation.
        self._cookie_armed = False
        self._conn_seq = 0
        #: (created_tick, closed_tick) per gracefully-closed connection —
        #: the paper's Table 1 measurement window (SYN accept to final
        #: FIN acknowledgement).
        self.conn_windows: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def init_module(self) -> Generator:
        """Start the TCP master event (Table 1's row): a periodic scan of
        all connections, owned by TCP's protection domain; the per-
        connection work is charged to each connection's path."""
        self.master_event = self.kernel.create_event(
            self.pd, self._master_scan,
            delay_ticks=self.costs.tcp_master_period_ticks,
            periodic=True, name="tcp-master")
        return
        yield  # pragma: no cover

    def _master_scan(self) -> Generator:
        yield Cycles(self.costs.tcp_master_event)
        for path in list(self.conn_table.values()):
            if not path.destroyed:
                yield Cycles(self.costs.tcp_timeout_per_conn, owner=path)

    # ------------------------------------------------------------------
    # open / attach
    # ------------------------------------------------------------------
    def open(self, path, attrs: Attributes, origin):
        stage = self.make_stage(path)
        if attrs.get("listen"):
            stage.state["listen"] = True
            stage.state["port"] = attrs.require("local_port")
            stage.state["penalty"] = bool(attrs.get("penalty"))
            stage.state["subnet"] = attrs.get("subnet") or Subnet("0.0.0.0/0")
            extend = ["ip"] if origin is None or origin.name != "ip" else []
            return OpenResult(stage, self._toward_net(origin, extend))
        # Active connection path.
        stage.state["listen"] = False
        stage.state["peer_ip"] = attrs.require("peer_ip")
        stage.state["peer_port"] = attrs.require("peer_port")
        stage.state["port"] = attrs.require("local_port")
        stage.state["syn"] = attrs.get("syn")
        stage.state["cookie"] = attrs.get("cookie")
        stage.state["cookie_seg"] = attrs.get("cookie_seg")
        if stage.state["syn"] is None and stage.state["cookie"] is None:
            raise ValueError("active TCP path needs a SYN or a cookie ACK")
        stage.state["parent"] = attrs.get("parent")
        stage.state["counted"] = False
        stage.state["timers"] = {}
        extend = [n for n in self.graph.neighbors(self.name)
                  if origin is None or n != origin.name]
        return OpenResult(stage, extend)

    def _toward_net(self, origin, default):
        """Passive paths extend toward the network side only."""
        neighbors = self.graph.neighbors(self.name)
        net_side = [n for n in neighbors
                    if self.graph.position(n) < self.graph.position(self.name)]
        if origin is not None:
            net_side = [n for n in net_side if n != origin.name]
        return net_side

    def attach(self, stage: Stage) -> None:
        path = stage.path
        if stage.state.get("listen"):
            port = stage.state["port"]
            listener = self.listeners.setdefault(port, Listener(port))
            path.policy_state.setdefault("syn_recvd", 0)
            if stage.state.get("penalty"):
                listener.set_penalty(path, self.penalty_predicate)
            else:
                listener.register(stage.state["subnet"], path)
                path.on_destroy(lambda p, l=listener: l.unregister(p))
            return
        # Active path: build the engine in SYN_RCVD and bind the demux key.
        # A cookie path skips SYN_RCVD entirely — the engine is rebuilt
        # ESTABLISHED from the handshake-completing ACK (paper-style
        # stateless fallback; no half-open state ever existed for it).
        syn = stage.state["syn"]
        if syn is None:
            engine = TCPEngine.from_syncookie(
                self.local_ip, stage.state["port"], stage.state["cookie_seg"],
                stage.state["peer_ip"], stage.state["cookie"],
                delayed_ack_ticks=self.server_delack_ticks or 0)
            stage.state["engine"] = engine
            stage.state["pending"] = None
            stage.state["established_seen"] = True
            self.connections_established += 1
        else:
            engine, actions = TCPEngine.passive_open(
                self.local_ip, stage.state["port"], syn,
                stage.state["peer_ip"],
                delayed_ack_ticks=self.server_delack_ticks or 0)
            stage.state["engine"] = engine
            stage.state["pending"] = actions
        stage.state["created_at"] = stage.path.attributes.get(
            "accepted_at", self.kernel.sim.now)
        self.connections_accepted += 1
        if self.active_path_runtime_limit is not None:
            path.runtime_limit_cycles = self.active_path_runtime_limit
        if self.active_path_quota is not None:
            self.kernel.quotas.set_quota(path, self.active_path_quota)
        path.sched.tickets = self.active_path_tickets
        key = (stage.state["port"], stage.state["peer_ip"],
               stage.state["peer_port"])
        self.conn_table[key] = path
        # The TCB: domain-heap memory charged to the path, freed by the
        # registered destructor on pathDestroy (pathKill sweeps it without
        # our help).
        tcb = self.pd.heap_alloc(TCB_BYTES, charge_to=path, label="tcb",
                                 allocator=self.kernel.allocator)
        stage.state["tcb"] = tcb

        def tcb_destructor(p, alloc=tcb, pd=self.pd):
            if alloc in p.heap_allocations:
                pd.heap_free(alloc)

        path.destructors.append((self.pd, tcb_destructor))

        parent = stage.state["parent"]
        if parent is not None:
            parent.policy_state["syn_recvd"] = \
                parent.policy_state.get("syn_recvd", 0) + 1
            stage.state["counted"] = True

        def cleanup(p, key=key, stage=stage):
            self.conn_table.pop(key, None)
            self._uncount(stage)
            for ev in stage.state.get("timers", {}).values():
                if ev is not None:
                    ev.cancel()

        path.on_destroy(cleanup)

    def _uncount(self, stage: Stage) -> None:
        if stage.state.get("counted"):
            stage.state["counted"] = False
            parent = stage.state.get("parent")
            if parent is not None and not parent.destroyed:
                parent.policy_state["syn_recvd"] = max(
                    0, parent.policy_state.get("syn_recvd", 1) - 1)

    # ------------------------------------------------------------------
    # Demux
    # ------------------------------------------------------------------
    def demux(self, dgram: IPDatagram) -> DemuxResult:
        seg: TCPSegment = dgram.payload
        key = (seg.dst_port, dgram.src_ip, seg.src_port)
        path = self.conn_table.get(key)
        if path is not None and not path.destroyed:
            return DemuxResult.to_path(path)
        if seg.flags & FLAG_SYN and not seg.flags & FLAG_ACK:
            prefix = self.src_prefix(dgram.src_ip)
            self.syn_arrivals[prefix] = self.syn_arrivals.get(prefix, 0) + 1
            if self.syn_gate is not None and not self.syn_gate(prefix):
                # Adaptive defense rung 1: per-source token-bucket limit,
                # enforced as early as the static SYN cap.
                return self._drop("rate-limit")
            listener = self.listeners.get(seg.dst_port)
            if listener is None:
                return self._drop("no-listener")
            passive = listener.select(dgram.src_ip)
            if passive is None:
                return self._drop("no-subnet")
            if self.syncookies:
                # Stateless fallback: the cap is moot, nothing will be
                # allocated for this SYN.
                return DemuxResult.to_path(passive)
            cap = passive.policy_state.get("syn_cap")
            if cap is not None \
                    and passive.policy_state.get("syn_recvd", 0) >= cap:
                # The SYN-flood defence: identified and dropped instantly,
                # during demultiplexing.
                return self._drop("syn-cap")
            return DemuxResult.to_path(passive)
        if (self._cookie_armed and seg.flags & FLAG_ACK
                and not seg.flags & (FLAG_SYN | FLAG_FIN | FLAG_RST)
                and seg.ack - 1 == self.syn_cookie(dgram.src_ip,
                                                   seg.src_port,
                                                   seg.dst_port)):
            # Handshake-completing ACK for a cookie SYN-ACK we sent
            # statelessly: route to the passive path, which reconstructs
            # the connection.
            listener = self.listeners.get(seg.dst_port)
            passive = listener.select(dgram.src_ip) if listener else None
            if passive is not None:
                return DemuxResult.to_path(passive)
        return self._drop("no-connection")

    def _drop(self, reason: str) -> DemuxResult:
        self.demux_drops[reason] = self.demux_drops.get(reason, 0) + 1
        return DemuxResult.drop(reason)

    # ------------------------------------------------------------------
    # SYN-cookie fallback and half-open accounting
    # ------------------------------------------------------------------
    @staticmethod
    def src_prefix(ip: str) -> str:
        """The /24 prefix used as the per-source accounting key."""
        return ip.rsplit(".", 1)[0]

    def syn_cookie(self, src_ip: str, src_port: int, dst_port: int) -> int:
        """Deterministic cookie for one (source, port pair).

        Used as the SYN-ACK's initial sequence number; the handshake ACK
        must carry ``cookie + 1``.  Forced odd and nonzero so it can never
        collide with the engine's real ISS of 0 (a stale ACK for a normal
        handshake acks 1, which would need cookie 0).
        """
        h = zlib.crc32(f"{src_ip}:{src_port}:{dst_port}:"
                       f"{self.syncookie_secret}".encode())
        return (h & 0x3FFFFFFF) | 1

    def set_syncookies(self, enabled: bool) -> None:
        self.syncookies = bool(enabled)
        if enabled:
            self._cookie_armed = True

    def half_open(self) -> int:
        """Connections currently in SYN_RCVD across all passive paths."""
        total = 0
        seen = set()
        for listener in self.listeners.values():
            paths = [p for _, p in listener.passive_paths]
            if listener.penalty_path is not None:
                paths.append(listener.penalty_path)
            for p in paths:
                if id(p) in seen or p.destroyed:
                    continue
                seen.add(id(p))
                total += p.policy_state.get("syn_recvd", 0)
        return total

    # ------------------------------------------------------------------
    # Path processing: inbound
    # ------------------------------------------------------------------
    def forward(self, stage: Stage, dgram: IPDatagram) -> Generator:
        if stage.state.get("listen"):
            result = yield from self._passive_forward(stage, dgram)
            return result
        result = yield from self._active_forward(stage, dgram)
        return result

    def _passive_forward(self, stage: Stage, dgram: IPDatagram) -> Generator:
        """A SYN reached the passive path: create the active path."""
        seg: TCPSegment = dgram.payload
        accepted_at = self.kernel.sim.now  # Table 1's window opens here
        yield Cycles(self.costs.tcp_handshake_step + self.acct(2))
        if not (seg.flags & FLAG_SYN) or seg.flags & FLAG_ACK:
            if (seg.flags & FLAG_ACK
                    and not seg.flags & (FLAG_SYN | FLAG_FIN | FLAG_RST)):
                result = yield from self._cookie_accept(stage, dgram,
                                                        accepted_at)
                return result
            return False
        key = (seg.dst_port, dgram.src_ip, seg.src_port)
        if key in self.conn_table:
            # Duplicate SYN racing the active path: re-deliver there.
            path = self.conn_table[key]
            if not path.destroyed:
                path.enqueue(PathWork(path.stage_of(self.name), FORWARD,
                                      dgram))
            return True
        if self.syncookies:
            # Stateless fallback: answer with a cookie SYN-ACK and
            # allocate nothing — no path, no TCB, no half-open slot.  A
            # spoofed SYN therefore costs us only this reply; a genuine
            # client completes the handshake and the connection is
            # reconstructed from its ACK in :meth:`_cookie_accept`.
            cookie = self.syn_cookie(dgram.src_ip, seg.src_port,
                                     seg.dst_port)
            synack = TCPSegment(seg.dst_port, seg.src_port, seq=cookie,
                                ack=seg.seq + 1, flags=FLAG_SYN | FLAG_ACK)
            self.syncookies_sent += 1
            yield Cycles(PURE_ACK_COST + self.acct(1))
            yield from stage.send_backward((dgram.src_ip, synack))
            return True
        cap = stage.path.policy_state.get("syn_cap")
        if cap is not None \
                and stage.path.policy_state.get("syn_recvd", 0) >= cap:
            return False
        self._conn_seq += 1
        attrs = Attributes(listen=False,
                           peer_ip=dgram.src_ip,
                           peer_port=seg.src_port,
                           local_port=seg.dst_port,
                           syn=seg,
                           accepted_at=accepted_at,
                           parent=stage.path,
                           document_root=stage.path.attributes.get(
                               "document_root"))
        try:
            path = yield from self.path_manager.path_create(
                attrs, start_module=self.name,
                name=f"conn-{self._conn_seq}")
        except PathCreateError:
            return False
        # Flush the SYN-ACK from the new path's own thread, so its cycles
        # are charged to the connection.
        tcp_stage = path.stage_of(self.name)
        path.enqueue(PathWork(tcp_stage, BACKWARD,
                              TcpFlush(tcp_stage.state.pop("pending"))))
        return True

    def _cookie_accept(self, stage: Stage, dgram: IPDatagram,
                       accepted_at: int) -> Generator:
        """A handshake-completing ACK for a stateless cookie SYN-ACK:
        validate the cookie and only now create the connection path."""
        seg: TCPSegment = dgram.payload
        cookie = self.syn_cookie(dgram.src_ip, seg.src_port, seg.dst_port)
        if not self._cookie_armed or seg.ack - 1 != cookie:
            return False
        key = (seg.dst_port, dgram.src_ip, seg.src_port)
        if key in self.conn_table:
            # Duplicate ACK racing the reconstructed path: re-deliver.
            path = self.conn_table[key]
            if not path.destroyed:
                path.enqueue(PathWork(path.stage_of(self.name), FORWARD,
                                      dgram))
            return True
        self._conn_seq += 1
        attrs = Attributes(listen=False,
                           peer_ip=dgram.src_ip,
                           peer_port=seg.src_port,
                           local_port=seg.dst_port,
                           cookie=cookie,
                           cookie_seg=seg,
                           accepted_at=accepted_at,
                           document_root=stage.path.attributes.get(
                               "document_root"))
        try:
            path = yield from self.path_manager.path_create(
                attrs, start_module=self.name,
                name=f"conn-{self._conn_seq}")
        except PathCreateError:
            return False
        self.syncookies_accepted += 1
        if seg.payload_len:
            # A request piggybacked on the ACK: process it on the new
            # path's own thread so its cycles are charged there.
            tcp_stage = path.stage_of(self.name)
            path.enqueue(PathWork(tcp_stage, FORWARD, dgram))
        return True

    def _active_forward(self, stage: Stage, dgram: IPDatagram) -> Generator:
        engine: TCPEngine = stage.state["engine"]
        seg: TCPSegment = dgram.payload
        if seg.payload_len or seg.flags & (FLAG_SYN | FLAG_FIN):
            cost = self.costs.tcp_rx_segment + self.acct(1)
            if seg.flags & (FLAG_SYN | FLAG_FIN):
                cost += self.costs.tcp_handshake_step
        else:
            cost = self.costs.tcp_rx_ack + self.acct(1)
        yield Cycles(cost)
        actions = engine.on_segment(seg)
        yield from self._apply(stage, actions)
        return True

    # ------------------------------------------------------------------
    # Path processing: outbound
    # ------------------------------------------------------------------
    def backward(self, stage: Stage, msg: Any) -> Generator:
        engine: TCPEngine = stage.state["engine"]
        if isinstance(msg, TcpFlush):
            if msg.actions is not None:
                yield from self._apply(stage, msg.actions)
            return True
        if isinstance(msg, AppSend):
            actions = engine.send(msg.nbytes, app_data=msg.app_data,
                                  fin=msg.fin)
            yield from self._apply(stage, actions)
            return True
        raise TypeError(f"tcp.backward: unexpected message {msg!r}")

    # ------------------------------------------------------------------
    # Applying engine actions under path semantics
    # ------------------------------------------------------------------
    def _apply(self, stage: Stage, actions: TCPActions) -> Generator:
        engine: TCPEngine = stage.state["engine"]
        path = stage.path

        if actions.established and not stage.state.get("established_seen"):
            stage.state["established_seen"] = True
            self.connections_established += 1
            self._uncount(stage)  # no longer half-open

        # Deliveries go up toward HTTP.
        for nbytes, app_data in actions.deliveries:
            yield from stage.send_forward(HTTPData(nbytes, app_data))
        if actions.fin_received:
            yield from stage.send_forward(HTTPData(0, None, eof=True))

        # Transmissions go down toward IP/ETH.
        for seg in actions.segments:
            if seg.payload_len:
                yield Cycles(self.costs.tcp_tx_segment
                             + self.costs.copy_cost(seg.payload_len)
                             + self.acct(1))
            else:
                yield Cycles(PURE_ACK_COST + self.acct(1))
            yield from stage.send_backward((stage.state["peer_ip"], seg))
            if seg.payload_len and not path.destroyed:
                # Keep bursts short: non-preemptive threads must yield
                # between data segments (see the runaway limit).
                yield YieldCPU()
            if path.destroyed:
                return

        self._update_timers(stage, actions)

        if actions.closed:
            self._on_closed(stage, aborted=actions.aborted)

    def _update_timers(self, stage: Stage, actions: TCPActions) -> None:
        timers = stage.state["timers"]
        if actions.cancel_rto:
            self._cancel_timer(timers, "rto")
        if actions.set_rto is not None:
            self._cancel_timer(timers, "rto")
            timers["rto"] = self._make_timer(stage, "rto", actions.set_rto,
                                             lambda e: e.on_rto())
        if actions.cancel_delack:
            self._cancel_timer(timers, "delack")
        if actions.set_delack is not None:
            self._cancel_timer(timers, "delack")
            timers["delack"] = self._make_timer(stage, "delack",
                                                actions.set_delack,
                                                lambda e: e.on_delack())

    def _cancel_timer(self, timers: Dict, name: str) -> None:
        ev = timers.pop(name, None)
        if ev is not None:
            ev.cancel()

    def _make_timer(self, stage: Stage, name: str, delay: int, fire):
        engine = stage.state["engine"]
        path = stage.path

        def body() -> Generator:
            stage.state["timers"].pop(name, None)
            yield Cycles(self.costs.tcp_timeout_per_conn + self.acct(1))
            actions = fire(engine)
            yield from self._apply(stage, actions)

        return self.kernel.create_event(path, body, delay_ticks=delay,
                                        name=f"{path.name}-{name}")

    def _on_closed(self, stage: Stage, aborted: bool) -> None:
        path = stage.path
        if stage.state.get("closed_seen"):
            return
        stage.state["closed_seen"] = True
        if aborted:
            self.connections_aborted += 1
        else:
            self.connections_closed += 1
            self.conn_windows.append(
                (stage.state.get("created_at", 0), self.kernel.sim.now))
        self._uncount(stage)
        if not path.destroyed and self.path_manager is not None:
            self.path_manager.schedule_destroy(path)

    def destroy_stage(self, stage: Stage) -> None:
        timers = stage.state.get("timers")
        if timers:
            for name in list(timers):
                self._cancel_timer(timers, name)
