"""The QoS stream receiver (paper section 4.4.2).

Opens one TCP connection, requests ``/stream``, and records received bytes
so the experiment can verify the ten-second averages stay within 1 % of the
1 MBps target while the server is under load.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.clock import seconds_to_ticks
from repro.sim.costs import CostModel
from repro.sim.engine import Simulator
from repro.workload.clients import ClientHost
from repro.workload.stats import WorkloadStats


class QosReceiver(ClientHost):
    """Receiver of the guaranteed 1 MBps stream."""

    REQUEST_BYTES = 90
    #: The :class:`WorkloadStats` class its bytes are counted under.
    STATS_CLASS = "qos"

    def __init__(self, sim: Simulator, ip: str, server_ip: str,
                 costs: Optional[CostModel] = None,
                 stats: Optional[WorkloadStats] = None):
        super().__init__(sim, ip, costs=costs, stats=stats,
                         label=f"qos-{ip}")
        self.server_ip = server_ip
        self.bytes_received = 0
        self.conn = None

    def start(self) -> None:
        from repro.modules.http import HTTPRequest
        conn = self.connect(self.server_ip, 80,
                            delayed_ack_ticks=self.costs.client_delayed_ack_ticks)
        self.conn = conn
        conn.on_established = lambda: conn.send(
            self.REQUEST_BYTES, app_data=HTTPRequest("GET", "/stream"))

        def deliver(nbytes: int, _data) -> None:
            self.bytes_received += nbytes
            self.stats.add_bytes(self.STATS_CLASS, self.sim.now, nbytes)

        conn.on_deliver = deliver

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.abort()

    # ------------------------------------------------------------------
    def achieved_bandwidth(self, start_tick: int, end_tick: int) -> float:
        return self.stats.bandwidth_bps(self.STATS_CLASS, start_tick,
                                        end_tick)

    def ten_second_averages(self, start_tick: int, end_tick: int):
        return self.stats.windowed_bandwidth(
            self.STATS_CLASS, start_tick, end_tick, seconds_to_ticks(10))
