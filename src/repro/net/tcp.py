"""A reusable TCP state machine.

Used three ways: wrapped by the Scout TCP module (where its cycle costs are
charged to paths), by the Linux baseline server, and by the client hosts.
The engine is *pure*: every entry point returns a :class:`TCPActions`
record describing segments to transmit, data delivered to the application,
state transitions, and timer requests; the environment applies them.  That
keeps protocol logic identical across all three environments, which is
exactly the property the experiments need — the configurations must differ
only in OS structure, not in TCP behaviour.

Era-faithful details that matter to the paper's figures:

* initial congestion window of **one** segment (RFC 2001) and slow start —
  with the clients' delayed ACKs this is what slows the 10 KB document
  below ~16 parallel clients in Figure 8;
* delayed ACKs: a receiver holding less than two full segments of unacked
  data waits for the delayed-ACK timer unless a FIN/push forces immediacy;
* exponential RTO backoff with connection abort after a retry budget —
  this is how half-open connections created by the SYN attacker eventually
  expire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.sim.clock import seconds_to_ticks
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    TCP_MSS,
    TCPSegment,
)


class TcpState:
    """Connection states (classic names)."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    CLOSING = "CLOSING"


@dataclass
class TCPActions:
    """What the environment must do after an engine call."""

    segments: List[TCPSegment] = field(default_factory=list)
    #: In-order application deliveries: (nbytes, app_data) pairs.
    deliveries: List[Tuple[int, Any]] = field(default_factory=list)
    established: bool = False
    fin_received: bool = False
    closed: bool = False
    aborted: bool = False
    #: The peer actively refused the connection (RST before establishment)
    #: — distinct from an abort after the retry budget, so workloads can
    #: report refused vs timed-out connections separately.
    refused: bool = False
    set_rto: Optional[int] = None
    cancel_rto: bool = False
    set_delack: Optional[int] = None
    cancel_delack: bool = False

    def merge(self, other: "TCPActions") -> None:
        self.segments.extend(other.segments)
        self.deliveries.extend(other.deliveries)
        self.established = self.established or other.established
        self.fin_received = self.fin_received or other.fin_received
        self.closed = self.closed or other.closed
        self.aborted = self.aborted or other.aborted
        self.refused = self.refused or other.refused
        if other.set_rto is not None:
            self.set_rto = other.set_rto
            self.cancel_rto = False
        if other.cancel_rto:
            self.cancel_rto = True
            self.set_rto = None
        if other.set_delack is not None:
            self.set_delack = other.set_delack
            self.cancel_delack = False
        if other.cancel_delack:
            self.cancel_delack = True
            self.set_delack = None


@dataclass
class _SentSegment:
    seq: int
    payload_len: int
    flags: int
    app_data: Any = None

    @property
    def span(self) -> int:
        span = self.payload_len
        if self.flags & FLAG_SYN:
            span += 1
        if self.flags & FLAG_FIN:
            span += 1
        return span


class TCPEngine:
    """One connection's sender+receiver state machine."""

    DEFAULT_RTO = seconds_to_ticks(1.5)
    MAX_RTO = seconds_to_ticks(48)
    MAX_RETRIES = 7
    MAX_SYN_RETRIES = 3
    #: Initial congestion window in segments (RFC 2001).
    INITIAL_CWND_SEGMENTS = 1

    def __init__(self, local_ip: str, local_port: int,
                 remote_ip: str, remote_port: int,
                 delayed_ack_ticks: int = 0):
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = TcpState.CLOSED

        # Send side (absolute byte offsets from our ISS of 0).
        self.snd_una = 0
        self.snd_nxt = 0
        self._unacked: List[_SentSegment] = []
        self._queue: List[Tuple[int, Any]] = []  # (bytes remaining, app_data)
        self._queued_bytes = 0
        self.fin_pending = False
        self.fin_sent = False
        self.fin_acked = False

        # Receive side.
        self.rcv_nxt = 0
        self.fin_received = False
        self._unacked_rx_bytes = 0

        # Congestion control.
        self.cwnd = self.INITIAL_CWND_SEGMENTS * TCP_MSS
        self.ssthresh = 64 * 1024

        # Timers (logical armed-state lives here; env schedules).
        self.rto_current = self.DEFAULT_RTO
        self.rto_armed = False
        self.retries = 0
        self.delayed_ack_ticks = delayed_ack_ticks
        self.delack_armed = False

        # Statistics.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmits = 0

    # ------------------------------------------------------------------
    # Opens
    # ------------------------------------------------------------------
    @classmethod
    def active_open(cls, local_ip: str, local_port: int,
                    remote_ip: str, remote_port: int,
                    **kwargs) -> Tuple["TCPEngine", TCPActions]:
        """Client side: returns the engine and the SYN to transmit."""
        eng = cls(local_ip, local_port, remote_ip, remote_port, **kwargs)
        eng.state = TcpState.SYN_SENT
        syn = _SentSegment(seq=eng.snd_nxt, payload_len=0, flags=FLAG_SYN)
        eng.snd_nxt += 1
        eng._unacked.append(syn)
        actions = TCPActions(segments=[eng._materialize(syn)])
        actions.set_rto = eng._arm_rto()
        return eng, actions

    @classmethod
    def passive_open(cls, local_ip: str, local_port: int,
                     syn: TCPSegment, remote_ip: str,
                     **kwargs) -> Tuple["TCPEngine", TCPActions]:
        """Server side: consume a SYN, return engine + SYN-ACK."""
        if not syn.flags & FLAG_SYN:
            raise ValueError("passive_open requires a SYN segment")
        eng = cls(local_ip, local_port, remote_ip, syn.src_port, **kwargs)
        eng.state = TcpState.SYN_RCVD
        eng.rcv_nxt = syn.seq + 1
        synack = _SentSegment(seq=eng.snd_nxt, payload_len=0,
                              flags=FLAG_SYN | FLAG_ACK)
        eng.snd_nxt += 1
        eng._unacked.append(synack)
        actions = TCPActions(segments=[eng._materialize(synack)])
        actions.set_rto = eng._arm_rto()
        return eng, actions

    @classmethod
    def from_syncookie(cls, local_ip: str, local_port: int,
                       ack_seg: TCPSegment, remote_ip: str,
                       cookie: int, **kwargs) -> "TCPEngine":
        """Server side, stateless-fallback path: rebuild an ESTABLISHED
        engine from the final ACK of a cookie handshake.

        No state was allocated when the SYN arrived; the cookie we issued
        as our ISS comes back (plus one) in the ACK.  All sequence
        arithmetic is absolute, so the engine simply starts with
        ``snd_una == snd_nxt == cookie + 1`` and ``rcv_nxt`` at the ACK's
        sequence number — from here the connection is indistinguishable
        from one that went through ``passive_open``.
        """
        eng = cls(local_ip, local_port, remote_ip, ack_seg.src_port,
                  **kwargs)
        eng.state = TcpState.ESTABLISHED
        eng.snd_una = eng.snd_nxt = cookie + 1
        eng.rcv_nxt = ack_seg.seq
        return eng

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send(self, nbytes: int, app_data: Any = None,
             fin: bool = False) -> TCPActions:
        """Queue application bytes; transmit as the window allows.

        ``fin=True`` closes the connection after these bytes, letting the
        FIN piggyback on the final data segment (how the web server ends a
        response).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.state in (TcpState.CLOSED,):
            raise RuntimeError("send on closed connection")
        if nbytes:
            self._queue.append((nbytes, app_data))
            self._queued_bytes += nbytes
        if fin:
            return self.close()
        return self._transmit_window()

    def close(self) -> TCPActions:
        """Application close: send FIN once the queue drains."""
        if self.fin_pending or self.state == TcpState.CLOSED:
            return TCPActions()
        self.fin_pending = True
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state == TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        return self._transmit_window()

    def abort(self) -> TCPActions:
        """Application abort: emit RST and drop everything."""
        actions = TCPActions(aborted=True, closed=True,
                             cancel_rto=True, cancel_delack=True)
        if self.state != TcpState.CLOSED:
            rst = TCPSegment(self.local_port, self.remote_port,
                             self.snd_nxt, self.rcv_nxt,
                             FLAG_RST | FLAG_ACK)
            actions.segments.append(rst)
        self._enter_closed()
        return actions

    # ------------------------------------------------------------------
    # Segment arrival
    # ------------------------------------------------------------------
    def on_segment(self, seg: TCPSegment) -> TCPActions:
        """Process one arriving segment; returns the actions to apply."""
        actions = TCPActions()
        if self.state == TcpState.CLOSED:
            return actions

        if seg.flags & FLAG_RST:
            if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
                actions.refused = True
            self._enter_closed()
            actions.closed = True
            actions.aborted = True
            actions.cancel_rto = True
            actions.cancel_delack = True
            return actions

        if seg.flags & FLAG_SYN:
            self._handle_syn_phase(seg, actions)
            return actions

        if seg.flags & FLAG_ACK:
            self._process_ack(seg.ack, actions)

        if self.state == TcpState.SYN_RCVD and seg.flags & FLAG_ACK \
                and self.snd_una >= 1:
            self.state = TcpState.ESTABLISHED
            actions.established = True

        if seg.payload_len or seg.flags & FLAG_FIN:
            self._process_data(seg, actions)

        actions.merge(self._transmit_window())
        return actions

    def _handle_syn_phase(self, seg: TCPSegment, actions: TCPActions) -> None:
        if self.state == TcpState.SYN_SENT and seg.flags & FLAG_ACK:
            # SYN-ACK of our SYN.
            self.rcv_nxt = seg.seq + 1
            self._process_ack(seg.ack, actions)
            if self.snd_una >= 1:
                self.state = TcpState.ESTABLISHED
                actions.established = True
                actions.segments.append(self._pure_ack())
                actions.merge(self._transmit_window())
            return
        if self.state == TcpState.SYN_RCVD:
            # Duplicate SYN: retransmit our SYN-ACK.
            for sent in self._unacked:
                if sent.flags & FLAG_SYN:
                    actions.segments.append(self._materialize(sent))
                    return

    def _process_ack(self, ack: int, actions: TCPActions) -> None:
        if ack <= self.snd_una:
            return
        self.snd_una = ack
        self.retries = 0
        self.rto_current = self.DEFAULT_RTO
        payload_acked = 0
        while self._unacked and (self._unacked[0].seq
                                 + self._unacked[0].span) <= ack:
            sent = self._unacked.pop(0)
            payload_acked += sent.payload_len
            if sent.flags & FLAG_FIN:
                self.fin_acked = True
        # Congestion window growth, per ACK that advances over *data* —
        # handshake and FIN acknowledgements do not open the window.
        if payload_acked:
            if self.cwnd < self.ssthresh:
                self.cwnd += TCP_MSS                  # slow start
            else:
                self.cwnd += max(1, TCP_MSS * TCP_MSS // self.cwnd)
        if self._unacked:
            actions.set_rto = self._arm_rto()
        else:
            self.rto_armed = False
            actions.cancel_rto = True
        if self.fin_acked:
            if self.state == TcpState.FIN_WAIT_1:
                self.state = TcpState.FIN_WAIT_2
            elif self.state in (TcpState.CLOSING, TcpState.LAST_ACK):
                self._enter_closed()
                actions.closed = True

    def _process_data(self, seg: TCPSegment, actions: TCPActions) -> None:
        if seg.seq != self.rcv_nxt:
            # Out of order / duplicate: re-ACK what we have.
            actions.segments.append(self._pure_ack())
            return
        if seg.payload_len:
            self.rcv_nxt += seg.payload_len
            self.bytes_received += seg.payload_len
            actions.deliveries.append((seg.payload_len, seg.app_data))
            self._unacked_rx_bytes += seg.payload_len
        fin = bool(seg.flags & FLAG_FIN)
        if fin:
            self.rcv_nxt += 1
            self.fin_received = True
            actions.fin_received = True
            if self.state == TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
            elif self.state == TcpState.FIN_WAIT_1:
                self.state = TcpState.CLOSING
            elif self.state == TcpState.FIN_WAIT_2:
                # The active closer goes straight to CLOSED: no 2MSL hold.
                self._enter_closed()
                actions.closed = True
        # ACK policy: immediate on FIN or >= 2 MSS of unacked data;
        # otherwise delayed when a delayed-ACK timer is configured.
        if fin or self.delayed_ack_ticks == 0 \
                or self._unacked_rx_bytes >= 2 * TCP_MSS:
            self._ack_now(actions)
        elif not self.delack_armed:
            self.delack_armed = True
            actions.set_delack = self.delayed_ack_ticks

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def on_rto(self) -> TCPActions:
        """Retransmission timer fired."""
        actions = TCPActions()
        self.rto_armed = False
        if not self._unacked or self.state == TcpState.CLOSED:
            return actions
        self.retries += 1
        limit = (self.MAX_SYN_RETRIES
                 if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD)
                 else self.MAX_RETRIES)
        if self.retries > limit:
            self._enter_closed()
            actions.closed = True
            actions.aborted = True
            actions.cancel_delack = True
            return actions
        # Classic Tahoe-style response.
        flight = self.snd_nxt - self.snd_una
        self.ssthresh = max(flight // 2, 2 * TCP_MSS)
        self.cwnd = TCP_MSS
        self.rto_current = min(self.rto_current * 2, self.MAX_RTO)
        sent = self._unacked[0]
        self.retransmits += 1
        actions.segments.append(self._materialize(sent))
        actions.set_rto = self._arm_rto()
        return actions

    def on_delack(self) -> TCPActions:
        """Delayed-ACK timer fired."""
        actions = TCPActions()
        self.delack_armed = False
        if self.state == TcpState.CLOSED:
            return actions
        if self._unacked_rx_bytes:
            self._unacked_rx_bytes = 0
            actions.segments.append(self._pure_ack())
        return actions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _transmit_window(self) -> TCPActions:
        """Segment queued data as cwnd allows; piggyback the FIN."""
        actions = TCPActions()
        if self.state not in (TcpState.ESTABLISHED, TcpState.FIN_WAIT_1,
                              TcpState.CLOSE_WAIT, TcpState.LAST_ACK):
            return actions
        sent_any = False
        while True:
            flight = self.snd_nxt - self.snd_una
            if self._queued_bytes > 0:
                available = self.cwnd - flight
                if available <= 0:
                    break
                payload = min(TCP_MSS, self._queued_bytes)
                if payload > available:
                    # Sender-side silly-window avoidance: never emit a
                    # runt segment just to top up the window — a partial
                    # segment starves the receiver's delayed-ACK "two
                    # full segments" rule and stalls the stream.  Wait
                    # for an ACK unless nothing at all is in flight.
                    if flight > 0:
                        break
                    payload = available
                if payload <= 0:
                    break
                app_data = self._dequeue(payload)
                flags = FLAG_ACK
                if self.fin_pending and self._queued_bytes == 0 \
                        and not self.fin_sent:
                    flags |= FLAG_FIN
                    self.fin_sent = True
                sent = _SentSegment(self.snd_nxt, payload, flags, app_data)
                self.snd_nxt += sent.span
                self.bytes_sent += payload
                self._unacked.append(sent)
                actions.segments.append(self._materialize(sent))
                sent_any = True
            elif self.fin_pending and not self.fin_sent:
                sent = _SentSegment(self.snd_nxt, 0, FLAG_ACK | FLAG_FIN)
                self.fin_sent = True
                self.snd_nxt += 1
                self._unacked.append(sent)
                actions.segments.append(self._materialize(sent))
                sent_any = True
                break
            else:
                break
        if sent_any:
            # Data segments carry the ACK; any pending delayed ACK rides
            # along for free.
            if self.delack_armed:
                self.delack_armed = False
                actions.cancel_delack = True
            self._unacked_rx_bytes = 0
            if not self.rto_armed:
                actions.set_rto = self._arm_rto()
        return actions

    def _dequeue(self, nbytes: int) -> Any:
        """Take bytes off the app queue; returns the first app_data tag."""
        app_data = None
        remaining = nbytes
        while remaining > 0 and self._queue:
            size, tag = self._queue[0]
            if app_data is None and tag is not None:
                app_data = tag
            if size <= remaining:
                remaining -= size
                self._queue.pop(0)
            else:
                self._queue[0] = (size - remaining, None)
                remaining = 0
        self._queued_bytes -= nbytes
        return app_data

    def _materialize(self, sent: _SentSegment) -> TCPSegment:
        flags = sent.flags
        if flags != FLAG_SYN:
            # Everything except the client's initial SYN carries an ACK.
            flags |= FLAG_ACK
        return TCPSegment(self.local_port, self.remote_port, sent.seq,
                          self.rcv_nxt, flags, sent.payload_len,
                          sent.app_data)

    def _pure_ack(self) -> TCPSegment:
        self._unacked_rx_bytes = 0
        return TCPSegment(self.local_port, self.remote_port,
                          self.snd_nxt, self.rcv_nxt, FLAG_ACK)

    def _ack_now(self, actions: TCPActions) -> None:
        if self.delack_armed:
            self.delack_armed = False
            actions.cancel_delack = True
        actions.segments.append(self._pure_ack())

    def _arm_rto(self) -> int:
        self.rto_armed = True
        return self.rto_current

    def _enter_closed(self) -> None:
        self.state = TcpState.CLOSED
        self._queue.clear()
        self._queued_bytes = 0
        self._unacked.clear()
        self.rto_armed = False
        self.delack_armed = False

    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.state == TcpState.ESTABLISHED

    @property
    def closed(self) -> bool:
        return self.state == TcpState.CLOSED

    @property
    def half_open(self) -> bool:
        return self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TCPEngine {self.local_ip}:{self.local_port} <-> "
                f"{self.remote_ip}:{self.remote_port} {self.state}>")
