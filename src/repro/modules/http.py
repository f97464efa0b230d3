"""The HTTP module: the web server itself.

At boot, HTTP creates the *passive* (listening) paths — by default one for
the whole Internet, or one per subnet when the SYN-flood policy configures
a trusted/untrusted split.  Per connection it parses the request on the
connection's *active* path and serves it:

* static documents through the file-access interface (HTTP→FS→SCSI along
  the same path — Figure 2's full chain);
* ``/cgi-bin/<name>`` by spawning a handler thread owned by the path, which
  is what makes a runaway CGI script killable by the 2 ms policy;
* ``/stream`` as a paced QoS stream (the 1 MBps TCP stream of section
  4.4.2), with the pacing thread owned by the path so the proportional
  share scheduler can guarantee it CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.sim.clock import millis_to_ticks
from repro.sim.cpu import Cycles, Sleep
from repro.core.attributes import Attributes
from repro.core.path import Stage
from repro.modules.base import Module, OpenResult
from repro.modules.fs import FileRead
from repro.modules.tcp import AppSend, HTTPData
from repro.net.addressing import Subnet

RESPONSE_HEADER_BYTES = 180
ERROR_BODY_BYTES = 90
CGI_SPAWN_COST = 4_000

#: Graceful degradation (defense ladder rung 4): at tier >= 2 static
#: bodies are shrunk to this percentage of their full size.
DEGRADE_BODY_PERCENT = 25

#: QoS stream pacing: 10 KB every 10 ms = 1 MBps (paper section 4.4.2).
STREAM_CHUNK_BYTES = 10_000
STREAM_INTERVAL_TICKS = millis_to_ticks(10)


class HTTPRequest:
    """A parsed HTTP/1.0 request (carried as segment app-data)."""

    __slots__ = ("method", "uri", "size")

    def __init__(self, method: str, uri: str):
        self.method = method
        self.uri = uri
        self.size = len(method) + len(uri) + 30

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HTTPRequest {self.method} {self.uri}>"


class ListenSpec:
    """One passive path to create at boot."""

    def __init__(self, port: int = 80, subnet: Optional[Subnet] = None,
                 name: str = "", syn_cap: Optional[int] = None,
                 penalty: bool = False):
        self.port = port
        self.subnet = subnet or Subnet("0.0.0.0/0")
        self.name = name or f"passive-{self.subnet.cidr}"
        self.syn_cap = syn_cap
        #: Penalty-box passive paths (paper section 4.4.4) catch SYNs from
        #: previously-misbehaving clients instead of matching by subnet.
        self.penalty = penalty


class HttpModule(Module):
    """HTTP/1.0 server module."""

    interfaces = frozenset({"aio", "file"})

    def __init__(self, kernel, name, pd,
                 listen_specs: Optional[List[ListenSpec]] = None,
                 cgi_scripts: Optional[Dict[str, Callable]] = None):
        super().__init__(kernel, name, pd)
        self.listen_specs = listen_specs or [ListenSpec()]
        #: name -> factory(stage) returning a thread-body generator.
        self.cgi_scripts = cgi_scripts or {}
        #: The stream's rate in bytes/s and the proportional-share tickets
        #: granted to stream paths, both set by the QoS policy (1 ticket =
        #: best effort).
        self.stream_rate_bps = 1_000_000
        self.stream_tickets = 1
        self.path_manager = None  # injected by the server assembly
        self.passive_paths: List = []
        self.requests_served = 0
        self.requests_404 = 0
        self.cgi_spawned = 0
        self.streams_started = 0
        self.bytes_served = 0
        #: Graceful-degradation tier, set by the defense controller:
        #: 0 = full service; 1 = shed CGI (cheap 503, no handler thread);
        #: 2 = also shrink static responses to DEGRADE_BODY_PERCENT.
        self.degrade_level = 0
        self.cgi_shed = 0

    # ------------------------------------------------------------------
    # Boot: create the passive paths
    # ------------------------------------------------------------------
    def init_module(self) -> Generator:
        for spec in self.listen_specs:
            attrs = Attributes(listen=True, local_port=spec.port,
                               subnet=spec.subnet, document_root="/",
                               penalty=spec.penalty)
            path = yield from self.path_manager.path_create(
                attrs, start_module=self.name, name=spec.name)
            if spec.syn_cap is not None:
                path.policy_state["syn_cap"] = spec.syn_cap
            self.passive_paths.append(path)

    def open(self, path, attrs: Attributes, origin):
        stage = self.make_stage(path)
        if attrs.get("listen"):
            # Passive paths stop at HTTP: extend toward the net side only.
            extend = ["tcp"] if origin is None else []
            return OpenResult(stage, extend)
        stage.state["request"] = None
        stage.state["responded"] = False
        # Active paths run the full chain: toward FS unless we came from
        # there.
        extend = [n for n in self.graph.neighbors(self.name)
                  if origin is None or n != origin.name]
        return OpenResult(stage, extend)

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    def forward(self, stage: Stage, data: HTTPData) -> Generator:
        """Stream data delivered by TCP."""
        if data.eof:
            return True  # client closed; nothing to do for HTTP/1.0
        request = data.app_data
        if not isinstance(request, HTTPRequest) or stage.state.get("responded"):
            return True
        yield Cycles(self.costs.http_parse_request + self.acct(1))
        stage.state["request"] = request
        uri = request.uri
        if uri.startswith("/cgi-bin/"):
            yield from self._run_cgi(stage, uri[len("/cgi-bin/"):])
        elif uri == "/stream":
            self._start_stream(stage)
        else:
            yield from self._serve_static(stage, uri)
        return True

    def _serve_static(self, stage: Stage, uri: str) -> Generator:
        result = yield from stage.call_forward(FileRead(uri))
        yield Cycles(self.costs.http_build_response + self.acct(1))
        stage.state["responded"] = True
        if result is None:
            self.requests_404 += 1
            yield from stage.send_backward(AppSend(
                RESPONSE_HEADER_BYTES + ERROR_BODY_BYTES, fin=True,
                app_data=("404", uri)))
            return
        size, _buf = result
        self.requests_served += 1
        if self.degrade_level >= 2:
            # Tier 2: serve a shrunk body — the client still gets a
            # useful answer, the machine sheds most of the copy/transmit
            # cost.  Tagged "206" so clients can count degraded replies.
            size = max(1, size * DEGRADE_BODY_PERCENT // 100)
            self.bytes_served += size
            yield from stage.send_backward(AppSend(
                RESPONSE_HEADER_BYTES + size, fin=True,
                app_data=("206", uri)))
            return
        self.bytes_served += size
        yield from stage.send_backward(AppSend(
            RESPONSE_HEADER_BYTES + size, fin=True, app_data=("200", uri)))

    # ------------------------------------------------------------------
    # CGI
    # ------------------------------------------------------------------
    def _run_cgi(self, stage: Stage, script: str) -> Generator:
        factory = self.cgi_scripts.get(script)
        if self.degrade_level >= 1:
            # Tier 1: shed dynamic work before touching static service.
            # A cheap 503 instead of a handler thread — the expensive
            # part (spawn + script cycles) never happens.
            self.cgi_shed += 1
            stage.state["responded"] = True
            yield Cycles(self.costs.http_build_response + self.acct(1))
            yield from stage.send_backward(AppSend(
                RESPONSE_HEADER_BYTES + ERROR_BODY_BYTES, fin=True,
                app_data=("503", script)))
            return
        yield Cycles(CGI_SPAWN_COST + self.acct(2))
        stage.state["responded"] = True
        if factory is None:
            self.requests_404 += 1
            yield from stage.send_backward(AppSend(
                RESPONSE_HEADER_BYTES + ERROR_BODY_BYTES, fin=True,
                app_data=("404", script)))
            return
        self.cgi_spawned += 1
        # The handler runs on its own thread *owned by the path* — its
        # cycles are charged to the connection and the runtime limit
        # applies.  An infinite loop here is the paper's CGI attack.
        body = factory(stage)
        self.kernel.spawn_thread(
            stage.path, body, name=f"cgi-{script}@{stage.path.name}",
            stack_domains=len(stage.path.domains_crossed()))

    def respond_from_cgi(self, stage: Stage, nbytes: int) -> Generator:
        """Helper for well-behaved CGI scripts to send their output."""
        yield Cycles(self.costs.http_build_response + self.acct(1))
        self.requests_served += 1
        self.bytes_served += nbytes
        yield from stage.send_backward(AppSend(
            RESPONSE_HEADER_BYTES + nbytes, fin=True, app_data=("200", "cgi")))

    # ------------------------------------------------------------------
    # QoS stream
    # ------------------------------------------------------------------
    def _start_stream(self, stage: Stage) -> None:
        self.streams_started += 1
        stage.state["responded"] = True
        path = stage.path
        path.sched.tickets = self.stream_tickets  # the QoS reservation
        interval = STREAM_INTERVAL_TICKS
        chunk = STREAM_CHUNK_BYTES * self.stream_rate_bps // 1_000_000

        def pacer() -> Generator:
            engine = path.stage_of("tcp").state["engine"]
            yield Cycles(self.costs.http_build_response + self.acct(1))
            next_send = self.kernel.sim.now
            while not path.destroyed and not engine.closed:
                yield from stage.send_backward(AppSend(chunk))
                # Absolute-time pacing: processing time must not stretch
                # the period, or the stream silently undershoots its rate.
                next_send += interval
                delay = next_send - self.kernel.sim.now
                if delay > 0:
                    yield Sleep(delay)

        self.kernel.spawn_thread(path, pacer(),
                                 name=f"stream@{path.name}",
                                 stack_domains=len(path.domains_crossed()))
