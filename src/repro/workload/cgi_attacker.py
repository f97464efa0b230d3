"""The CGI attacker (paper section 4.1.2).

"A CGI Attacker performs a GET request at a rate of one every second.  The
request results in an infinite-loop thread that emulates a runaway CGI
script."  The attacker is a legitimate-looking client: it completes the
handshake and sends a well-formed GET, so the server cannot distinguish it
until the CGI thread has burned its 2 ms allowance — exactly the window
Figure 11 charges against best-effort throughput.

The runaway CGI body itself (``runaway_cgi``) is registered with the
server's HTTP module; a well-behaved ``busy_cgi`` is provided for contrast
and for the examples.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.clock import TICKS_PER_SECOND
from repro.sim.costs import CostModel
from repro.sim.cpu import Cycles
from repro.sim.engine import Simulator
from repro.workload.clients import ClientHost
from repro.workload.stats import WorkloadStats


def runaway_cgi(stage) -> Generator:
    """The attack payload: an infinite loop that never yields usefully.

    It is killed by the runtime-limit policy; everything it allocated is
    reclaimed by ``pathKill``.
    """
    while True:
        yield Cycles(25_000)


def busy_cgi(stage) -> Generator:
    """A well-behaved CGI script: compute, then respond."""
    http = stage.module
    yield Cycles(120_000)
    yield from http.respond_from_cgi(stage, 256)


class CgiAttacker(ClientHost):
    """Launches one runaway-CGI request per second."""

    REQUEST_BYTES = 120
    #: "A GET request at a rate of one every second."
    INTERVAL_TICKS = TICKS_PER_SECOND

    def __init__(self, sim: Simulator, ip: str, server_ip: str,
                 script: str = "loop",
                 costs: Optional[CostModel] = None,
                 stats: Optional[WorkloadStats] = None):
        super().__init__(sim, ip, costs=costs, stats=stats,
                         label=f"cgi-attacker-{ip}")
        self.server_ip = server_ip
        self.script = script
        self.attacks_launched = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        # Spread attackers across the interval deterministically.
        self.sim.schedule(self.jittered(self.INTERVAL_TICKS, 0.9),
                          self._attack)

    def stop(self) -> None:
        self._running = False

    def _attack(self) -> None:
        if not self._running:
            return
        self.attacks_launched += 1
        from repro.modules.http import HTTPRequest
        conn = self.connect(self.server_ip, 80)
        uri = f"/cgi-bin/{self.script}"
        conn.on_established = lambda: conn.send(
            self.REQUEST_BYTES, app_data=HTTPRequest("GET", uri))
        # The server will kill the path; our side eventually times out.
        # Launch the next attack on schedule regardless.
        self.sim.schedule(self.INTERVAL_TICKS, self._attack)
        # Don't let dead engines accumulate timers forever: abort this
        # connection well before the next scheduled attack.
        self.sim.schedule(self.INTERVAL_TICKS - 1,
                          lambda c=conn: c.abort() if not c.engine.closed
                          else None)
