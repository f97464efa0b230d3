"""Client machines.

:class:`ClientHost` is the shared substrate: a NIC, a static ARP map, and
per-connection TCP engines whose timers run on the simulator.  Clients have
no CPU model — the paper provisioned one PentiumPro per client process so
the clients are never the bottleneck — but they do pay a per-request
overhead (process wakeup, socket setup) and a per-packet turnaround delay,
both of which shape the sub-saturation region of Figure 8.

:class:`HttpClient` is the paper's "Client" load: a serial loop fetching
one document over and over.  With ``retry=True`` it gains an
application-level retry stack — per-request deadlines, capped exponential
backoff with seeded jitter, and a retry *budget* — which is what lets it
survive a replica failover in the clustered testbed without turning
goodput collapse into a self-inflicted retry storm.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.clock import seconds_to_ticks
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.net.addressing import MacAddr
from repro.net.link import NIC
from repro.net.packet import (
    ETHERTYPE_IP,
    EthFrame,
    IPDatagram,
    IPPROTO_TCP,
    TCPSegment,
)
from repro.net.tcp import TCPActions, TCPEngine
from repro.workload.stats import WorkloadStats


class ClientConnection:
    """One TCP connection from a client host, timers included."""

    def __init__(self, host: "ClientHost", remote_ip: str, remote_port: int,
                 local_port: int, delayed_ack_ticks: int = 0):
        self.host = host
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.local_port = local_port
        self.on_deliver: Optional[Callable[[int, Any], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_fin: Optional[Callable[[], None]] = None
        self.on_closed: Optional[Callable[[bool], None]] = None
        self._rto_ev = None
        self._delack_ev = None
        self._done = False
        #: Set when the peer actively refused (RST before establishment).
        self.refused = False
        self.engine, actions = TCPEngine.active_open(
            host.ip, local_port, remote_ip, remote_port,
            delayed_ack_ticks=delayed_ack_ticks)
        self.apply(actions)

    # ------------------------------------------------------------------
    def apply(self, actions: TCPActions) -> None:
        sim = self.host.sim
        for seg in actions.segments:
            self.host.send_segment(self.remote_ip, seg)
        for nbytes, data in actions.deliveries:
            if self.on_deliver is not None:
                self.on_deliver(nbytes, data)
        if actions.established and self.on_established is not None:
            self.on_established()
        if actions.fin_received and self.on_fin is not None:
            self.on_fin()
        if actions.refused:
            self.refused = True
        if actions.cancel_rto and self._rto_ev is not None:
            self._rto_ev.cancel()
            self._rto_ev = None
        if actions.set_rto is not None:
            if self._rto_ev is not None:
                self._rto_ev.cancel()
            self._rto_ev = sim.schedule(
                actions.set_rto, lambda: self.apply(self.engine.on_rto()))
        if actions.cancel_delack and self._delack_ev is not None:
            self._delack_ev.cancel()
            self._delack_ev = None
        if actions.set_delack is not None:
            if self._delack_ev is not None:
                self._delack_ev.cancel()
            self._delack_ev = sim.schedule(
                actions.set_delack,
                lambda: self.apply(self.engine.on_delack()))
        if actions.closed and not self._done:
            self._done = True
            self._cancel_timers()
            self.host.forget(self)
            on_closed = self.on_closed
            # The callbacks are closures capturing this connection (see
            # HttpClient._start_attempt), so they form reference cycles;
            # drop them now that the connection is finished so the dead
            # connection is reclaimed by refcount, not the cyclic GC.
            self.on_deliver = self.on_established = None
            self.on_fin = self.on_closed = None
            if on_closed is not None:
                on_closed(actions.aborted)

    def _cancel_timers(self) -> None:
        for ev in (self._rto_ev, self._delack_ev):
            if ev is not None:
                ev.cancel()
        self._rto_ev = self._delack_ev = None

    # ------------------------------------------------------------------
    def receive(self, seg: TCPSegment) -> None:
        if not self._done:
            self.apply(self.engine.on_segment(seg))

    def send(self, nbytes: int, app_data: Any = None,
             fin: bool = False) -> None:
        self.apply(self.engine.send(nbytes, app_data=app_data, fin=fin))

    def close(self) -> None:
        self.apply(self.engine.close())

    def abort(self) -> None:
        self.apply(self.engine.abort())


class ClientHost:
    """A simulated client machine (200 MHz PentiumPro running Linux)."""

    def __init__(self, sim: Simulator, ip: str,
                 costs: Optional[CostModel] = None,
                 stats: Optional[WorkloadStats] = None,
                 label: str = ""):
        self.sim = sim
        self.ip = ip
        self.costs = costs or CostModel.default()
        self.stats = stats or WorkloadStats()
        self.nic = NIC(sim, label=label or f"host-{ip}")
        self.nic.on_receive = self._on_frame
        self.arp_map: Dict[str, MacAddr] = {}
        self._conns: Dict[Tuple[int, str, int], ClientConnection] = {}
        self._next_port = 10_000
        self.rng = random.Random(ip)

    # ------------------------------------------------------------------
    def attach(self, medium) -> None:
        medium.attach(self.nic)

    def learn(self, ip: str, mac: MacAddr) -> None:
        self.arp_map[ip] = mac

    def alloc_port(self) -> int:
        self._next_port += 1
        return self._next_port

    # ------------------------------------------------------------------
    def connect(self, remote_ip: str, remote_port: int,
                delayed_ack_ticks: int = 0) -> ClientConnection:
        conn = ClientConnection(self, remote_ip, remote_port,
                                self.alloc_port(),
                                delayed_ack_ticks=delayed_ack_ticks)
        key = (conn.local_port, remote_ip, remote_port)
        self._conns[key] = conn
        return conn

    def forget(self, conn: ClientConnection) -> None:
        key = (conn.local_port, conn.remote_ip, conn.remote_port)
        self._conns.pop(key, None)

    # ------------------------------------------------------------------
    def send_segment(self, dst_ip: str, seg: TCPSegment) -> None:
        mac = self.arp_map.get(dst_ip)
        if mac is None:
            return  # unresolvable: drop (testbeds always pre-seed)
        dgram = IPDatagram(self.ip, dst_ip, IPPROTO_TCP, seg)
        frame = EthFrame(self.nic.mac, mac, ETHERTYPE_IP, dgram)
        # Client-side turnaround: the process takes a moment to respond.
        self.sim.schedule(self.costs.client_turnaround_ticks,
                          lambda: self.nic.send(frame))

    def _on_frame(self, frame: EthFrame) -> None:
        dgram = frame.payload
        if not isinstance(dgram, IPDatagram) or dgram.dst_ip != self.ip:
            return
        seg = dgram.payload
        if not isinstance(seg, TCPSegment):
            return
        key = (seg.dst_port, dgram.src_ip, seg.src_port)
        conn = self._conns.get(key)
        if conn is not None:
            conn.receive(seg)

    def jittered(self, base_ticks: int, spread: float = 0.2) -> int:
        """Deterministic per-host jitter to avoid phase lock."""
        return int(base_ticks * self.rng.uniform(1 - spread, 1 + spread))


#: The retry stack of :class:`HttpClient` (``retry=True``).  Three
#: mechanisms, all deterministic:
#:
#: * **per-attempt deadline** — an attempt that has not completed after
#:   RETRY_DEADLINE_TICKS is aborted client-side (the stalled-replica
#:   case a TCP RTO alone handles far too slowly for interactive goodput);
#: * **capped exponential backoff with seeded jitter** — attempt *n* waits
#:   ``min(cap, base * 2^(n-2))`` scaled by the client host's own seeded
#:   RNG, so a failover does not re-synchronize every client into a
#:   thundering herd (:func:`retry_backoff_ticks`);
#: * **retry budget** — a token account that earns RETRY_BUDGET_RATIO_MILS
#:   thousandths of a token per fresh request and spends one whole token
#:   per retry (fixed-point, so replay is exact).  When the budget is
#:   empty the failure is final: a dead server makes the clients *back
#:   off*, not amplify the outage into a self-inflicted retry storm.
RETRY_MAX_ATTEMPTS = 4
RETRY_DEADLINE_TICKS = seconds_to_ticks(0.25)
RETRY_BACKOFF_BASE_TICKS = seconds_to_ticks(0.02)
RETRY_BACKOFF_CAP_TICKS = seconds_to_ticks(0.16)
RETRY_JITTER = 0.5
RETRY_BUDGET_RATIO_MILS = 200
RETRY_BUDGET_CAP_MILS = 20_000
RETRY_BUDGET_INITIAL_MILS = 5_000


def retry_backoff_ticks(attempt: int, rng: random.Random) -> int:
    """Delay before retry attempt ``attempt`` (2, 3, ...), jittered."""
    base = min(RETRY_BACKOFF_CAP_TICKS,
               RETRY_BACKOFF_BASE_TICKS << max(0, attempt - 2))
    return max(1, int(base * rng.uniform(1 - RETRY_JITTER,
                                         1 + RETRY_JITTER)))


class HttpClient(ClientHost):
    """The paper's Client load: serial requests for one document."""

    REQUEST_BYTES = 110

    def __init__(self, sim: Simulator, ip: str, server_ip: str,
                 document: str, costs: Optional[CostModel] = None,
                 stats: Optional[WorkloadStats] = None,
                 stats_class: str = "client",
                 retry: bool = False):
        super().__init__(sim, ip, costs=costs, stats=stats,
                         label=f"client-{ip}")
        self.server_ip = server_ip
        self.document = document
        self.stats_class = stats_class
        self.retry = retry
        self.requests_started = 0
        self.requests_completed = 0
        self.requests_failed = 0
        self.requests_refused = 0
        self.requests_degraded = 0
        #: Failed attempts redone by the retry stack (never counted as
        #: started requests or completions in their own right).
        self.requests_retried = 0
        #: Retries the budget refused (storm prevention engaging).
        self.retries_denied = 0
        #: Attempts aborted client-side by the per-request deadline.
        self.deadline_aborts = 0
        self.bytes_received = 0
        #: Response size of each completed request (header + body).
        self.response_sizes: list = []
        self._running = False
        self._budget_mils = RETRY_BUDGET_INITIAL_MILS if retry else 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the serial request loop."""
        if self._running:
            return
        self._running = True
        self.sim.schedule(
            self.jittered(self.costs.client_request_overhead_ticks, 1.0),
            self._begin_request)

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _begin_request(self) -> None:
        if not self._running:
            return
        self.requests_started += 1
        if self.retry:
            self._budget_mils = min(RETRY_BUDGET_CAP_MILS,
                                    self._budget_mils
                                    + RETRY_BUDGET_RATIO_MILS)
        self._start_attempt(1)

    def _take_retry_token(self) -> bool:
        if self._budget_mils >= 1000:
            self._budget_mils -= 1000
            return True
        return False

    def _start_attempt(self, attempt: int) -> None:
        if not self._running:
            return
        from repro.modules.http import HTTPRequest  # avoid import cycle
        conn = self.connect(self.server_ip, 80,
                            delayed_ack_ticks=self.costs.client_delayed_ack_ticks)
        got = {"bytes": 0, "tag": None}
        deadline_ev = None
        if self.retry:
            def expire() -> None:
                # Attempt still open past its deadline: abort client-side
                # (emits RST) and let the closed handler decide on retry.
                self.deadline_aborts += 1
                conn.abort()
            deadline_ev = self.sim.schedule(RETRY_DEADLINE_TICKS, expire)

        conn.on_established = lambda: conn.send(
            self.REQUEST_BYTES, app_data=HTTPRequest("GET", self.document))

        def deliver(nbytes: int, data) -> None:
            got["bytes"] += nbytes
            self.bytes_received += nbytes
            if got["tag"] is None and isinstance(data, tuple) and data:
                got["tag"] = data[0]  # response status ("200", "206", ...)

        conn.on_deliver = deliver
        conn.on_fin = conn.close

        def closed(aborted: bool) -> None:
            if deadline_ev is not None:
                deadline_ev.cancel()
            if aborted or got["bytes"] == 0:
                if self._attempt_failed(attempt, conn):
                    return  # retry scheduled; the logical request stays open
            else:
                self.requests_completed += 1
                self.response_sizes.append(got["bytes"])
                self.stats.complete(self.stats_class, self.sim.now)
                if got["tag"] in ("206", "503"):
                    # Served, but under graceful degradation (shrunk body
                    # or shed CGI).
                    self.requests_degraded += 1
                    self.stats.outcome(self.stats_class, "degraded",
                                       self.sim.now)
            if self._running:
                self.sim.schedule(
                    self.jittered(self.costs.client_request_overhead_ticks),
                    self._begin_request)

        conn.on_closed = closed

    def _attempt_failed(self, attempt: int, conn: ClientConnection) -> bool:
        """One attempt died (aborted, refused, or empty).

        Returns True when a retry of the same logical request was
        scheduled; False when the failure is final (the caller then closes
        out the request and moves on).
        """
        if self.retry and self._running and attempt < RETRY_MAX_ATTEMPTS:
            if self._take_retry_token():
                # The attempt is recorded as `retried`, never as a fresh
                # start or a completion — the logical request stays open.
                self.requests_retried += 1
                self.stats.outcome(self.stats_class, "retried",
                                   self.sim.now)
                self.sim.schedule(
                    retry_backoff_ticks(attempt + 1, self.rng),
                    lambda: self._retry_attempt(attempt + 1))
                return True
            self.retries_denied += 1
        # Final failure.  Distinguish an active refusal (RST to our SYN)
        # from a silent abort after the retry budget — the latter is the
        # signature of a defense dropping a legitimate client.
        self.requests_failed += 1
        self.stats.fail(self.stats_class)
        if conn.refused:
            self.requests_refused += 1
            self.stats.outcome(self.stats_class, "refused", self.sim.now)
        else:
            self.stats.outcome(self.stats_class, "aborted", self.sim.now)
        return False

    def _retry_attempt(self, attempt: int) -> None:
        if self._running:
            self._start_attempt(attempt)
